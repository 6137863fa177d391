//! Network-level residency ledger: the cross-layer counterpart of the
//! per-layer abstract machine.
//!
//! [`interpret_program`](crate::interpret_program) validates one
//! layer's command stream; residency decisions, however, span layer
//! boundaries — a producer scatters its output tensor into a reserved
//! SPM region, every consumer gathers from it, and the region must be
//! released exactly when the last consumer retires. The
//! [`ResidencyLedger`] replays those cross-layer events against the
//! residency budget and catches the failure modes a per-layer check
//! cannot see: gathering from a tensor that was spilled under pressure
//! (use-after-free), releasing a tensor twice (double-free), and
//! reserving past the budget (overflow).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Lifecycle state of one cross-layer resident tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TensorState {
    /// Reserved and holding data; `remaining` consumers still to
    /// retire.
    Live { bytes: u64, remaining: u32 },
    /// Evicted under pressure — the bytes were released and the data
    /// went back to DRAM; any further consumption is a use-after-free.
    Spilled,
    /// Fully consumed and released at the last consumer's retirement.
    Freed,
}

/// A violation of the cross-layer residency protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// A reservation would exceed the residency budget.
    BudgetOverflow {
        /// The tensor being reserved.
        tensor: String,
        /// Its size.
        bytes: u64,
        /// Bytes already reserved.
        used: u64,
        /// The budget.
        budget: u64,
    },
    /// A tensor was reserved while already live.
    AlreadyReserved {
        /// The tensor.
        tensor: String,
    },
    /// A consumer read a tensor that was spilled under pressure.
    UseAfterFree {
        /// The tensor.
        tensor: String,
    },
    /// A tensor was consumed or spilled after its last consumer
    /// already released it.
    DoubleFree {
        /// The tensor.
        tensor: String,
    },
    /// An event named a tensor the ledger has never seen.
    UnknownTensor {
        /// The tensor.
        tensor: String,
    },
    /// A tensor was still live when the network finished: some
    /// consumer the plan promised never retired it.
    Leaked {
        /// The tensor.
        tensor: String,
        /// Consumers still outstanding.
        remaining: u32,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::BudgetOverflow {
                tensor,
                bytes,
                used,
                budget,
            } => write!(
                f,
                "reserving {bytes} B for {tensor} overflows the residency budget ({used} of {budget} B used)"
            ),
            LedgerError::AlreadyReserved { tensor } => {
                write!(f, "{tensor} reserved while already live")
            }
            LedgerError::UseAfterFree { tensor } => {
                write!(f, "{tensor} consumed after being spilled — use-after-free")
            }
            LedgerError::DoubleFree { tensor } => {
                write!(f, "{tensor} released after its last consumer retired — double-free")
            }
            LedgerError::UnknownTensor { tensor } => {
                write!(f, "{tensor} was never reserved")
            }
            LedgerError::Leaked { tensor, remaining } => write!(
                f,
                "{tensor} still live at network end with {remaining} consumer(s) outstanding"
            ),
        }
    }
}

impl Error for LedgerError {}

/// Replays the cross-layer residency events of a network plan against
/// a byte budget, enforcing the carried-tensor protocol: reserve once,
/// consume exactly `consumers` times (the region is released at the
/// last retirement), spill at most once, never touch after release.
///
/// # Examples
///
/// ```
/// use flexer_sim::ResidencyLedger;
///
/// let mut ledger = ResidencyLedger::new(1024);
/// ledger.reserve("conv1→conv2", 512, 1)?;
/// assert_eq!(ledger.used(), 512);
/// ledger.consume("conv1→conv2")?; // last consumer retires the region
/// assert_eq!(ledger.used(), 0);
/// ledger.finish()?;
/// # Ok::<(), flexer_sim::LedgerError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ResidencyLedger {
    budget: u64,
    used: u64,
    peak: u64,
    tensors: BTreeMap<String, TensorState>,
}

impl ResidencyLedger {
    /// A ledger over `budget` bytes of SPM residency region.
    #[must_use]
    pub fn new(budget: u64) -> Self {
        Self {
            budget,
            used: 0,
            peak: 0,
            tensors: BTreeMap::new(),
        }
    }

    /// Reserves `bytes` for a produced tensor that `consumers` later
    /// reads will retire.
    ///
    /// # Errors
    ///
    /// [`LedgerError::BudgetOverflow`] when the reservation does not
    /// fit, [`LedgerError::AlreadyReserved`] when the tensor is
    /// already live.
    pub fn reserve(&mut self, tensor: &str, bytes: u64, consumers: u32) -> Result<(), LedgerError> {
        if matches!(self.tensors.get(tensor), Some(TensorState::Live { .. })) {
            return Err(LedgerError::AlreadyReserved {
                tensor: tensor.to_string(),
            });
        }
        let needed = self.used.saturating_add(bytes);
        if needed > self.budget {
            return Err(LedgerError::BudgetOverflow {
                tensor: tensor.to_string(),
                bytes,
                used: self.used,
                budget: self.budget,
            });
        }
        self.used = needed;
        self.peak = self.peak.max(self.used);
        self.tensors.insert(
            tensor.to_string(),
            TensorState::Live {
                bytes,
                remaining: consumers,
            },
        );
        Ok(())
    }

    /// One consumer of `tensor` retires; the region is released when
    /// the last one does.
    ///
    /// # Errors
    ///
    /// [`LedgerError::UseAfterFree`] for a spilled tensor,
    /// [`LedgerError::DoubleFree`] for an already-released one,
    /// [`LedgerError::UnknownTensor`] for one never reserved.
    pub fn consume(&mut self, tensor: &str) -> Result<(), LedgerError> {
        match self.tensors.get_mut(tensor) {
            Some(TensorState::Live { bytes, remaining }) => {
                *remaining = remaining.saturating_sub(1);
                if *remaining == 0 {
                    let released = *bytes;
                    self.used -= released;
                    self.tensors.insert(tensor.to_string(), TensorState::Freed);
                }
                Ok(())
            }
            Some(TensorState::Spilled) => Err(LedgerError::UseAfterFree {
                tensor: tensor.to_string(),
            }),
            Some(TensorState::Freed) => Err(LedgerError::DoubleFree {
                tensor: tensor.to_string(),
            }),
            None => Err(LedgerError::UnknownTensor {
                tensor: tensor.to_string(),
            }),
        }
    }

    /// Evicts a live tensor under pressure: its bytes are released and
    /// its data falls back to DRAM, so any later
    /// [`ResidencyLedger::consume`] is a use-after-free.
    ///
    /// # Errors
    ///
    /// [`LedgerError::DoubleFree`] for an already-released tensor,
    /// [`LedgerError::UnknownTensor`] for one never reserved.
    pub fn spill(&mut self, tensor: &str) -> Result<(), LedgerError> {
        match self.tensors.get(tensor) {
            Some(TensorState::Live { bytes, .. }) => {
                self.used -= *bytes;
                self.tensors
                    .insert(tensor.to_string(), TensorState::Spilled);
                Ok(())
            }
            Some(TensorState::Spilled | TensorState::Freed) => Err(LedgerError::DoubleFree {
                tensor: tensor.to_string(),
            }),
            None => Err(LedgerError::UnknownTensor {
                tensor: tensor.to_string(),
            }),
        }
    }

    /// Bytes currently reserved.
    #[must_use]
    pub const fn used(&self) -> u64 {
        self.used
    }

    /// Peak bytes ever reserved.
    #[must_use]
    pub const fn peak(&self) -> u64 {
        self.peak
    }

    /// Checks that nothing is still live at network end.
    ///
    /// # Errors
    ///
    /// [`LedgerError::Leaked`] naming the first still-live tensor.
    pub fn finish(&self) -> Result<(), LedgerError> {
        for (tensor, state) in &self.tensors {
            if let TensorState::Live { remaining, .. } = state {
                return Err(LedgerError::Leaked {
                    tensor: tensor.clone(),
                    remaining: *remaining,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_consume_free_cycle() {
        let mut ledger = ResidencyLedger::new(1000);
        ledger.reserve("a", 600, 2).unwrap();
        assert_eq!(ledger.used(), 600);
        ledger.consume("a").unwrap();
        assert_eq!(ledger.used(), 600, "one consumer left");
        ledger.consume("a").unwrap();
        assert_eq!(ledger.used(), 0, "released at last retirement");
        assert_eq!(ledger.peak(), 600);
        ledger.finish().unwrap();
    }

    #[test]
    fn budget_overflow_rejected() {
        let mut ledger = ResidencyLedger::new(1000);
        ledger.reserve("a", 600, 1).unwrap();
        let err = ledger.reserve("b", 500, 1).unwrap_err();
        assert!(matches!(err, LedgerError::BudgetOverflow { .. }), "{err}");
    }

    #[test]
    fn use_after_spill_rejected() {
        let mut ledger = ResidencyLedger::new(1000);
        ledger.reserve("a", 600, 1).unwrap();
        ledger.spill("a").unwrap();
        assert_eq!(ledger.used(), 0);
        let err = ledger.consume("a").unwrap_err();
        assert!(matches!(err, LedgerError::UseAfterFree { .. }), "{err}");
    }

    #[test]
    fn double_free_rejected() {
        let mut ledger = ResidencyLedger::new(1000);
        ledger.reserve("a", 600, 1).unwrap();
        ledger.consume("a").unwrap();
        let err = ledger.consume("a").unwrap_err();
        assert!(matches!(err, LedgerError::DoubleFree { .. }), "{err}");
        let err = ledger.spill("a").unwrap_err();
        assert!(matches!(err, LedgerError::DoubleFree { .. }), "{err}");
    }

    #[test]
    fn unknown_tensor_rejected() {
        let mut ledger = ResidencyLedger::new(1000);
        let err = ledger.consume("ghost").unwrap_err();
        assert!(matches!(err, LedgerError::UnknownTensor { .. }), "{err}");
    }

    #[test]
    fn leak_caught_at_finish() {
        let mut ledger = ResidencyLedger::new(1000);
        ledger.reserve("a", 600, 2).unwrap();
        ledger.consume("a").unwrap();
        let err = ledger.finish().unwrap_err();
        assert!(
            matches!(err, LedgerError::Leaked { remaining: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn freed_tensor_can_be_rereserved() {
        let mut ledger = ResidencyLedger::new(1000);
        ledger.reserve("a", 600, 1).unwrap();
        ledger.consume("a").unwrap();
        ledger.reserve("a", 400, 1).unwrap();
        ledger.consume("a").unwrap();
        ledger.finish().unwrap();
    }

    #[test]
    fn errors_render() {
        let mut ledger = ResidencyLedger::new(10);
        let err = ledger.reserve("big", 100, 1).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }
}
