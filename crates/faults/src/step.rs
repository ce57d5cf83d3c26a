//! The per-arrival step interface shared by the substrate fault walks.
//!
//! Each substrate's fault-injected walk decomposes into *arrivals*: the
//! work done at one node — resolve cached pointers, rank candidates,
//! probe until one answers — ending in either a forward to the next node
//! or a terminal outcome. [`WalkStep`] is that decision, and a
//! [`StepScratch`] carries the per-arrival buffers so a driver can run
//! the step function hop by hop without reallocating.
//!
//! Every walk is a driver over one step function per substrate: [`walk`]
//! runs it to completion (the read-only `*_with_aux_faults` walks, and
//! through them the repairing `lookup`/`route`/`search` wrappers), and
//! the `peercache-node` event loop delivers one arrival per `Lookup`
//! message. Because every fault decision in a
//! [`FaultPlan`](crate::FaultPlan) is a pure hash — no RNG state, no
//! ordering dependence — all drivers observe bit-identical probe
//! sequences, traces, and outcomes.

use peercache_id::Id;

use crate::plan::FaultPlan;
use crate::trace::{FaultedRoute, LookupFailure, RouteTrace};

/// The decision one arrival produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalkStep {
    /// Forward the lookup to this (probed-live) node. The driver charges
    /// the hop: `trace.hops += 1`, `trace.path.push(next)`.
    Forward(Id),
    /// The walk ends here with this outcome.
    Done(Result<Id, LookupFailure>),
}

/// Drive one walk from `origin` to its end: a plan-crashed origin fails
/// [`OriginDown`](LookupFailure::OriginDown); otherwise `step` runs at
/// each arrival (current node, trace, scratch) and the driver charges
/// every [`WalkStep::Forward`] as a hop. The caller checks that `origin`
/// is live in its substrate first.
pub fn walk<S>(origin: Id, plan: &FaultPlan, mut step: S) -> FaultedRoute
where
    S: FnMut(Id, &mut RouteTrace, &mut StepScratch) -> WalkStep,
{
    if plan.node_crashed(origin) {
        return FaultedRoute::origin_down(origin);
    }
    let mut current = origin;
    let mut trace = RouteTrace::reserved(origin);
    let mut scratch = StepScratch::new();
    loop {
        match step(current, &mut trace, &mut scratch) {
            WalkStep::Forward(next) => {
                trace.hops += 1;
                trace.path.push(next);
                current = next;
            }
            WalkStep::Done(outcome) => return FaultedRoute { outcome, trace },
        }
    }
}

/// Reusable per-arrival buffers for the step functions.
///
/// `aux` holds the staleness-resolved auxiliary pointers of the current
/// node (filled only while the plan's staleness channel is on); `dead`
/// the candidates that timed out *at this arrival* (the chord terminal
/// reads it to reproduce the post-repair successor view).
/// Both are overwritten at each arrival — a driver allocates one scratch
/// per in-flight lookup and reuses it across hops.
#[derive(Clone, Debug, Default)]
pub struct StepScratch {
    /// Staleness-resolved auxiliary pointers of the current node.
    pub aux: Vec<Id>,
    /// Candidates that timed out at the current arrival.
    pub dead: Vec<Id>,
}

impl StepScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        StepScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_starts_empty() {
        let s = StepScratch::new();
        assert!(s.aux.is_empty());
        assert!(s.dead.is_empty());
    }

    #[test]
    fn steps_compare_structurally() {
        assert_eq!(WalkStep::Forward(Id::new(3)), WalkStep::Forward(Id::new(3)));
        assert_ne!(
            WalkStep::Forward(Id::new(3)),
            WalkStep::Done(Ok(Id::new(3)))
        );
        assert_eq!(
            WalkStep::Done(Err(LookupFailure::HopLimit)),
            WalkStep::Done(Err(LookupFailure::HopLimit))
        );
    }
}
