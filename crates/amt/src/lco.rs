//! Local control objects.
//!
//! An LCO co-locates data and control (paper §III): it has input slots, a
//! reduction that folds each arriving input into the stored data, a
//! predicate that declares the LCO *triggered* (here: all expected inputs
//! arrived), and continuations — parcels or local closures — that run as
//! new lightweight threads once triggered.  DASHMM's implicit DAG is a
//! network of user-defined LCOs whose stored data is an expansion and whose
//! single continuation processes the node's out-edge list (paper §IV,
//! Figure 2).

use dashmm_obs::CLASS_NONE;
use parking_lot::Mutex;

use crate::parcel::Parcel;
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

/// A local closure run on trigger with a view of the LCO data.
pub type TriggerFn = Box<dyn FnOnce(&TaskCtx, &[f64]) + Send>;

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
    /// Trace class recorded for input reductions into this LCO
    /// ([`CLASS_NONE`] disables tracing for this LCO).
    pub trace_class: u8,
}

impl LcoSpec {
    /// A future: one input, stores it verbatim.
    pub fn future(size: usize) -> Self {
        LcoSpec {
            size,
            inputs: 1,
            op: LcoOp::Overwrite,
            on_trigger: None,
            trace_class: CLASS_NONE,
        }
    }

    /// An and-gate over `n` signals.
    pub fn and_gate(n: u32) -> Self {
        LcoSpec {
            size: 0,
            inputs: n,
            op: LcoOp::Gate,
            on_trigger: None,
            trace_class: CLASS_NONE,
        }
    }

    /// A summing reduction of `n` vectors of length `size`.
    pub fn reduce_sum(size: usize, n: u32) -> Self {
        LcoSpec {
            size,
            inputs: n,
            op: LcoOp::Add,
            on_trigger: None,
            trace_class: CLASS_NONE,
        }
    }

    /// Attach a trigger closure.
    pub fn with_trigger(mut self, f: TriggerFn) -> Self {
        self.on_trigger = Some(f);
        self
    }

    /// Record reductions into this LCO under a trace class.
    pub fn with_trace_class(mut self, class: u8) -> Self {
        self.trace_class = class;
        self
    }
}

pub(crate) struct LcoCell {
    pub(crate) state: Mutex<LcoState>,
}

pub(crate) struct LcoState {
    pub(crate) data: Vec<f64>,
    pub(crate) remaining: u32,
    pub(crate) triggered: bool,
    pub(crate) op: LcoOp,
    pub(crate) on_trigger: Option<TriggerFn>,
    /// Continuation parcels registered before the trigger; drained when it
    /// fires.  `include_data == true` appends the LCO data to the payload.
    pub(crate) waiting: Vec<(Parcel, bool)>,
    pub(crate) trace_class: u8,
}

impl LcoCell {
    pub(crate) fn new(spec: LcoSpec) -> Self {
        let triggered = spec.inputs == 0;
        LcoCell {
            state: Mutex::new(LcoState {
                data: vec![0.0; spec.size],
                remaining: spec.inputs,
                triggered,
                op: spec.op,
                on_trigger: spec.on_trigger,
                waiting: Vec::new(),
                trace_class: spec.trace_class,
            }),
        }
    }
}

impl LcoState {
    /// Fold one input; returns whether this input triggered the LCO.
    pub(crate) fn reduce(&mut self, input: &[f64]) -> bool {
        assert!(
            self.remaining > 0,
            "LCO received an input after triggering (inputs over-subscribed)"
        );
        match &self.op {
            LcoOp::Add => {
                assert_eq!(input.len(), self.data.len(), "Add input length mismatch");
                for (d, v) in self.data.iter_mut().zip(input) {
                    *d += v;
                }
            }
            LcoOp::Overwrite => {
                assert_eq!(
                    input.len(),
                    self.data.len(),
                    "Overwrite input length mismatch"
                );
                self.data.copy_from_slice(input);
            }
            LcoOp::Gate => {}
            LcoOp::Custom(f) => f(&mut self.data, input),
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
        assert_eq!(st.data, vec![1.5, 2.5, 3.5]);
    }

    #[test]
    fn future_overwrites() {
        let cell = LcoCell::new(LcoSpec::future(2));
        let mut st = cell.state.lock();
        assert!(st.reduce(&[9.0, 8.0]));
        assert_eq!(st.data, vec![9.0, 8.0]);
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
            trace_class: CLASS_NONE,
        };
        let cell = LcoCell::new(spec);
        let mut st = cell.state.lock();
        let _ = st.reduce(&[3.0]);
        let _ = st.reduce(&[2.0]);
        assert_eq!(st.data, vec![3.0]);
    }
}
