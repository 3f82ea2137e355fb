//! Local control objects.
//!
//! An LCO co-locates data and control (paper §III): it has input slots, a
//! reduction that folds each arriving input into the stored data, a
//! predicate that declares the LCO *triggered* (here: all expected inputs
//! arrived), and a continuation — a local closure — that runs as a new
//! lightweight thread once triggered.  DASHMM's implicit DAG is a
//! network of user-defined LCOs whose stored data is an expansion and whose
//! single continuation processes the node's out-edge list (paper §IV,
//! Figure 2).
//!
//! An LCO can be armed again once its run is over ([`crate::Runtime::rearm`]),
//! so one network serves every evaluation of the same DAG.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::runtime::TaskCtx;

/// How an arriving input is folded into the stored data.
pub enum LcoOp {
    /// Element-wise add (the reduction used by expansion LCOs).
    Add,
    /// Overwrite (futures).
    Overwrite,
    /// Ignore the input values; only count arrivals (and-gates).
    Gate,
    /// User-defined reduction.
    Custom(ReduceFn),
}

/// A user-defined reduction: folds one input into the stored data.
pub type ReduceFn = Box<dyn Fn(&mut [f64], &[f64]) + Send + Sync>;

/// A local closure run each time the LCO triggers, with the LCO's payload.
/// The payload is handed over shared, not copied: the closure may keep
/// clones of the handle for the rest of the run, and the LCO can only be
/// re-armed once every clone is gone.
pub type TriggerFn = Box<dyn Fn(&TaskCtx, &Arc<[f64]>) + Send + Sync>;

/// Specification of an LCO at allocation time.
pub struct LcoSpec {
    /// Length of the stored `f64` data.
    pub size: usize,
    /// Number of inputs that must arrive before the LCO triggers.
    pub inputs: u32,
    /// Reduction applied per input.
    pub op: LcoOp,
    /// Optional local continuation closure (DASHMM's out-edge processor).
    pub on_trigger: Option<TriggerFn>,
}

impl LcoSpec {
    /// A future: one input, stores it verbatim.
    pub fn future(size: usize) -> Self {
        LcoSpec {
            size,
            inputs: 1,
            op: LcoOp::Overwrite,
            on_trigger: None,
        }
    }

    /// An and-gate over `n` signals.
    pub fn and_gate(n: u32) -> Self {
        LcoSpec {
            size: 0,
            inputs: n,
            op: LcoOp::Gate,
            on_trigger: None,
        }
    }

    /// A summing reduction of `n` vectors of length `size`.
    pub fn reduce_sum(size: usize, n: u32) -> Self {
        LcoSpec {
            size,
            inputs: n,
            op: LcoOp::Add,
            on_trigger: None,
        }
    }

    /// Attach a trigger closure.
    pub fn with_trigger(mut self, f: TriggerFn) -> Self {
        self.on_trigger = Some(f);
        self
    }
}

pub(crate) struct LcoCell {
    pub(crate) state: Mutex<LcoState>,
    /// Inputs expected per arming.
    inputs: u32,
    /// Outside the lock: the continuation runs it without taking one.
    pub(crate) on_trigger: Option<TriggerFn>,
}

pub(crate) struct LcoState {
    /// Mutated in place while inputs arrive; shared with the continuation
    /// once triggered.
    pub(crate) data: Arc<[f64]>,
    pub(crate) remaining: u32,
    pub(crate) triggered: bool,
    /// `data` still holds the previous arming's values: the first input
    /// zeroes it before folding in.
    stale: bool,
    op: LcoOp,
}

impl LcoCell {
    pub(crate) fn new(spec: LcoSpec) -> Self {
        // SAFETY: all-zero bits are the f64 value 0.0.  Zeroed by the
        // allocator, so the pages of a payload no input ever reaches (an
        // LCO of a locality another process hosts) are never touched.
        let data = unsafe { Arc::<[f64]>::new_zeroed_slice(spec.size).assume_init() };
        LcoCell {
            state: Mutex::new(LcoState {
                data,
                remaining: spec.inputs,
                triggered: spec.inputs == 0,
                stale: false,
                op: spec.op,
            }),
            inputs: spec.inputs,
            on_trigger: spec.on_trigger,
        }
    }

    /// Arm again for another run: the allocation-time input count, and a
    /// payload zeroed lazily by its first input if any input reached it
    /// since it was last zero (an LCO with no inputs is zeroed here and
    /// stays triggered).
    pub(crate) fn rearm(&self) {
        let mut st = self.state.lock();
        let st = &mut *st;
        let data = Arc::get_mut(&mut st.data).expect("LCO payload still shared at re-arm");
        if self.inputs == 0 {
            data.fill(0.0);
        } else {
            st.stale |= st.remaining < self.inputs;
        }
        st.remaining = self.inputs;
        st.triggered = self.inputs == 0;
    }
}

impl LcoState {
    /// Whether an input of `len` values can be folded in now: the LCO has
    /// not triggered, and the length is the data's for the reductions that
    /// define one.
    pub(crate) fn accepts(&self, len: usize) -> bool {
        self.remaining > 0
            && match self.op {
                LcoOp::Add | LcoOp::Overwrite => len == self.data.len(),
                LcoOp::Gate | LcoOp::Custom(_) => true,
            }
    }

    /// Fold one input; returns whether this input triggered the LCO.
    pub(crate) fn reduce(&mut self, input: &[f64]) -> bool {
        assert!(
            self.remaining > 0,
            "LCO received an input after triggering (inputs over-subscribed)"
        );
        let data = Arc::get_mut(&mut self.data).expect("LCO payload shared before its trigger");
        if std::mem::take(&mut self.stale) {
            data.fill(0.0);
        }
        match &self.op {
            LcoOp::Add => {
                assert_eq!(input.len(), data.len(), "Add input length mismatch");
                for (d, v) in data.iter_mut().zip(input) {
                    *d += v;
                }
            }
            LcoOp::Overwrite => {
                assert_eq!(input.len(), data.len(), "Overwrite input length mismatch");
                data.copy_from_slice(input);
            }
            LcoOp::Gate => {}
            LcoOp::Custom(f) => f(data, input),
        }
        self.remaining -= 1;
        if self.remaining == 0 {
            self.triggered = true;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_reduction_triggers_on_last_input() {
        let cell = LcoCell::new(LcoSpec::reduce_sum(3, 2));
        let mut st = cell.state.lock();
        assert!(!st.reduce(&[1.0, 2.0, 3.0]));
        assert!(!st.triggered);
        assert!(st.reduce(&[0.5, 0.5, 0.5]));
        assert!(st.triggered);
        assert_eq!(&st.data[..], [1.5, 2.5, 3.5]);
    }

    #[test]
    fn future_overwrites() {
        let cell = LcoCell::new(LcoSpec::future(2));
        let mut st = cell.state.lock();
        assert!(st.reduce(&[9.0, 8.0]));
        assert_eq!(&st.data[..], [9.0, 8.0]);
    }

    #[test]
    fn gate_ignores_values() {
        let cell = LcoCell::new(LcoSpec::and_gate(3));
        let mut st = cell.state.lock();
        assert!(!st.reduce(&[]));
        assert!(!st.reduce(&[]));
        assert!(st.reduce(&[]));
    }

    #[test]
    fn zero_input_lco_starts_triggered() {
        let cell = LcoCell::new(LcoSpec {
            inputs: 0,
            ..LcoSpec::future(1)
        });
        assert!(cell.state.lock().triggered);
    }

    #[test]
    #[should_panic]
    fn oversubscription_panics() {
        let cell = LcoCell::new(LcoSpec::and_gate(1));
        let mut st = cell.state.lock();
        let _ = st.reduce(&[]);
        let _ = st.reduce(&[]);
    }

    #[test]
    fn custom_reduction() {
        let spec = LcoSpec {
            size: 1,
            inputs: 2,
            op: LcoOp::Custom(Box::new(|d, i| d[0] = d[0].max(i[0]))),
            on_trigger: None,
        };
        let cell = LcoCell::new(spec);
        let mut st = cell.state.lock();
        let _ = st.reduce(&[3.0]);
        let _ = st.reduce(&[2.0]);
        assert_eq!(&st.data[..], [3.0]);
    }

    #[test]
    fn rearm_restores_the_count_and_the_first_input_zeroes_the_payload() {
        // Offset-add style: each input touches one element, so whatever the
        // first input does not overwrite must read zero, not last run's value.
        let spec = LcoSpec {
            size: 3,
            inputs: 2,
            op: LcoOp::Custom(Box::new(|d, i| d[i[0] as usize] += i[1])),
            on_trigger: None,
        };
        let cell = LcoCell::new(spec);
        for round in 0..3 {
            {
                let mut st = cell.state.lock();
                assert!(!st.reduce(&[0.0, 1.0 + round as f64]));
                assert!(st.reduce(&[2.0, 5.0]));
                assert_eq!(&st.data[..], [1.0 + round as f64, 0.0, 5.0]);
            }
            cell.rearm();
            let st = cell.state.lock();
            assert_eq!((st.remaining, st.triggered), (2, false));
        }
        // An LCO with no inputs is zeroed at re-arm and stays triggered.
        let none = LcoCell::new(LcoSpec {
            inputs: 0,
            ..LcoSpec::future(2)
        });
        Arc::get_mut(&mut none.state.lock().data).unwrap()[1] = 7.0;
        none.rearm();
        let st = none.state.lock();
        assert!(st.triggered);
        assert_eq!(&st.data[..], [0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "still shared")]
    fn rearm_refuses_a_payload_still_shared() {
        let cell = LcoCell::new(LcoSpec::future(1));
        let held = {
            let mut st = cell.state.lock();
            assert!(st.reduce(&[1.0]));
            Arc::clone(&st.data)
        };
        cell.rearm();
        drop(held);
    }

    #[test]
    fn accepts_checks_count_and_length() {
        let cell = LcoCell::new(LcoSpec::reduce_sum(2, 1));
        let mut st = cell.state.lock();
        assert!(!st.accepts(1) && !st.accepts(3) && st.accepts(2));
        assert!(st.reduce(&[1.0, 2.0]));
        assert!(!st.accepts(2), "triggered");
        let gate = LcoCell::new(LcoSpec::and_gate(1));
        assert!(gate.state.lock().accepts(5), "a gate ignores values");
    }
}
