//! The host-DRAM offload baseline: optimizer state in host memory, updated
//! by the CPU.
//!
//! This is the configuration ZeRO-Offload uses when state *fits* in host
//! DRAM — the fastest host-side option and therefore the fairest upper
//! bound to show next to the in-storage engine. Its fatal constraint is
//! capacity: 13 B parameters of Adam state already need 182 GB of DRAM,
//! and 175 B parameters need 2.45 TB, which is exactly the regime the
//! paper targets. [`HostDramBaseline::new`] enforces the capacity check so
//! experiments show *where* this baseline stops existing.

use optim_math::kernels::{encode_grads, StateBuffers};
use optim_math::state::StateLayoutSpec;
use optim_math::Optimizer;
use optimstore_core::energy::ActivityCounts;
use optimstore_core::report::TrafficBytes;
use optimstore_core::{CoreError, StepReport};
use simkit::{SimDuration, SimTime, Timeline};

/// Host memory system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostDramConfig {
    /// Host DRAM bandwidth in bytes/second (shared by reads and writes).
    pub dram_bytes_per_sec: u64,
    /// Host DRAM capacity in bytes.
    pub dram_capacity_bytes: u64,
}

impl Default for HostDramConfig {
    fn default() -> Self {
        HostDramConfig {
            // 8-channel DDR4-3200 server: ~200 GB/s peak, ~60% streaming
            // efficiency for a read-modify-write kernel.
            dram_bytes_per_sec: 120_000_000_000,
            dram_capacity_bytes: 512 * (1 << 30),
        }
    }
}

/// The DRAM-offload baseline system.
#[derive(Debug)]
pub struct HostDramBaseline {
    cfg: HostDramConfig,
    spec: StateLayoutSpec,
    optimizer: Box<dyn Optimizer>,
    params: u64,
    /// Functional state (None in phantom mode).
    buffers: Option<StateBuffers>,
    dram: Timeline,
    step: u64,
}

impl HostDramBaseline {
    /// Creates the baseline, rejecting models whose state exceeds DRAM.
    pub fn new(
        cfg: HostDramConfig,
        params: u64,
        optimizer: Box<dyn Optimizer>,
        spec: StateLayoutSpec,
        functional: bool,
    ) -> Result<Self, CoreError> {
        if optimizer.kind() != spec.kind {
            return Err(CoreError::Config("optimizer/spec mismatch".into()));
        }
        let need = spec.model_footprint(params);
        if need > cfg.dram_capacity_bytes {
            return Err(CoreError::CapacityExceeded {
                need,
                have: cfg.dram_capacity_bytes,
            });
        }
        Ok(HostDramBaseline {
            cfg,
            spec,
            params,
            buffers: functional.then(|| {
                StateBuffers::init(
                    optimizer.as_ref(),
                    &vec![0.0; params as usize],
                    spec.grad_dtype,
                )
            }),
            optimizer,
            dram: Timeline::new("host-dram"),
            step: 0,
        })
    }

    /// Sets initial weights (functional mode).
    pub fn load_weights(&mut self, weights: &[f32]) -> Result<(), CoreError> {
        if weights.len() as u64 != self.params {
            return Err(CoreError::WeightLength {
                got: weights.len(),
                want: self.params,
            });
        }
        match &mut self.buffers {
            Some(_) => {
                self.buffers = Some(StateBuffers::init(
                    self.optimizer.as_ref(),
                    weights,
                    self.spec.grad_dtype,
                ));
                Ok(())
            }
            None => Err(CoreError::ModeMismatch(
                "load_weights needs functional mode",
            )),
        }
    }

    /// Current master weights (functional mode).
    pub fn weights(&self) -> Option<Vec<f32>> {
        self.buffers.as_ref().map(StateBuffers::weights_f32)
    }

    /// Runs one optimizer step. Timing: the update streams
    /// `read + write` state bytes through host DRAM at the configured
    /// bandwidth (gradients included; they are already in DRAM). A
    /// rejected call leaves the step count alone.
    pub fn run_step(
        &mut self,
        grads: Option<&[f32]>,
        at: SimTime,
    ) -> Result<StepReport, CoreError> {
        let step = self.step + 1;
        if let Some(buffers) = &mut self.buffers {
            let grads =
                grads.ok_or(CoreError::ModeMismatch("functional device needs gradients"))?;
            if grads.len() as u64 != self.params {
                return Err(CoreError::GradLength {
                    got: grads.len(),
                    want: self.params,
                });
            }
            let bytes = encode_grads(grads, self.spec.grad_dtype);
            buffers
                .step(self.optimizer.as_ref(), &bytes, self.spec.grad_dtype, step)
                .expect("buffer sizes are consistent");
        }
        self.step = step;
        // Traffic: read state+grad, write state+w16, all through host DRAM.
        let read = self.params * (self.spec.state_read_bytes() + self.spec.grad_bytes());
        let write = self.params * self.spec.state_write_bytes();
        let service = SimDuration::for_transfer(read + write, self.cfg.dram_bytes_per_sec);
        let win = self.dram.acquire(at, service);
        let counts = ActivityCounts {
            host_bytes: read + write,
            host_compute_bytes: write,
            ..Default::default()
        };
        Ok(StepReport {
            tier: "host-dram",
            params: self.params,
            start: at,
            end: win.end,
            duration: win.end - at,
            traffic: TrafficBytes::default(),
            energy: counts.energy(),
            erases: 0,
            gc_copies: 0,
            groups_total: 0,
            groups_skipped: 0,
            groups_replayed: 0,
            scrub_reads: 0,
            scrub_repairs: 0,
            scrub_refreshes: 0,
            parity_writes: 0,
            parity_reconstructions: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optim_math::state::GradDtype;
    use optim_math::{Adam, OptimizerKind};

    fn spec() -> StateLayoutSpec {
        StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16)
    }

    #[test]
    fn capacity_gate_rejects_large_models() {
        let err = HostDramBaseline::new(
            HostDramConfig::default(),
            175_000_000_000,
            Box::new(Adam::default()),
            spec(),
            false,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::CapacityExceeded { .. }));
    }

    #[test]
    fn functional_step_matches_reference() {
        let params = 1000usize;
        let weights: Vec<f32> = (0..params).map(|i| i as f32 * 1e-3).collect();
        let grads = vec![0.25f32; params];

        let mut b = HostDramBaseline::new(
            HostDramConfig::default(),
            params as u64,
            Box::new(Adam::default()),
            spec(),
            true,
        )
        .unwrap();
        b.load_weights(&weights).unwrap();
        b.run_step(Some(&grads), SimTime::ZERO).unwrap();

        let adam = Adam::default();
        let mut reference = StateBuffers::init(&adam, &weights, GradDtype::F16);
        let gbytes = encode_grads(&grads, GradDtype::F16);
        reference.step(&adam, &gbytes, GradDtype::F16, 1).unwrap();

        assert_eq!(b.weights().unwrap(), reference.weights_f32());
    }

    #[test]
    fn timing_is_dram_bound() {
        let params = 100_000_000u64; // 0.1 B params
        let mut b = HostDramBaseline::new(
            HostDramConfig::default(),
            params,
            Box::new(Adam::default()),
            spec(),
            false,
        )
        .unwrap();
        let r = b.run_step(None, SimTime::ZERO).unwrap();
        // 0.1e9 × (14 read + 14 write) B at 120 GB/s ≈ 23 ms.
        let expect = params as f64 * 28.0 / 120e9;
        let got = r.duration.as_secs_f64();
        assert!((got - expect).abs() / expect < 0.01, "{got} vs {expect}");
        assert_eq!(r.tier, "host-dram");
    }

    #[test]
    fn back_to_back_steps_serialize() {
        let mut b = HostDramBaseline::new(
            HostDramConfig::default(),
            1_000_000,
            Box::new(Adam::default()),
            spec(),
            false,
        )
        .unwrap();
        let r1 = b.run_step(None, SimTime::ZERO).unwrap();
        let r2 = b.run_step(None, SimTime::ZERO).unwrap();
        assert!(r2.end >= r1.end + r1.duration);
        assert_eq!(b.step, 2);
    }

    #[test]
    fn weight_length_checked() {
        let mut b = HostDramBaseline::new(
            HostDramConfig::default(),
            1000,
            Box::new(Adam::default()),
            spec(),
            true,
        )
        .unwrap();
        assert!(matches!(
            b.load_weights(&[0.0; 999]),
            Err(CoreError::WeightLength {
                got: 999,
                want: 1000
            })
        ));
    }

    #[test]
    fn rejected_step_does_not_count() {
        let params = 1000usize;
        let weights: Vec<f32> = (0..params).map(|i| i as f32 * 1e-3).collect();
        let grads = vec![0.25f32; params];
        let mut b = HostDramBaseline::new(
            HostDramConfig::default(),
            params as u64,
            Box::new(Adam::default()),
            spec(),
            true,
        )
        .unwrap();
        b.load_weights(&weights).unwrap();
        assert!(matches!(
            b.run_step(Some(&grads[1..]), SimTime::ZERO),
            Err(CoreError::GradLength { got: 999, .. })
        ));
        assert!(matches!(
            b.run_step(None, SimTime::ZERO),
            Err(CoreError::ModeMismatch(_))
        ));
        b.run_step(Some(&grads), SimTime::ZERO).unwrap();

        let adam = Adam::default();
        let mut reference = StateBuffers::init(&adam, &weights, GradDtype::F16);
        let gbytes = encode_grads(&grads, GradDtype::F16);
        reference.step(&adam, &gbytes, GradDtype::F16, 1).unwrap();
        assert_eq!(b.weights().unwrap(), reference.weights_f32());
    }
}
