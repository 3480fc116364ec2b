//! The one cut walk every pass's synchronization points go through.
//!
//! The paper's VC generator (§4.5) takes two pass-specific inputs: where
//! the output keeps each input value (a [`Correspondence`]), and liveness,
//! which [`cut_sync_points`] computes over the left program's [`Cfg`].

use keq_core::sync::{Relation, SyncPoint, SyncSet, ValueExpr};

use crate::liveness::{calls, phi_uses_from, predecessors, Call, Cfg, Liveness};
use crate::vcgen::VcOptions;

/// A register to havoc, with its width.
pub(crate) type Havoc = (String, u32);

/// The left key type of a correspondence.
pub(crate) type Key<C> = <<C as Correspondence>::Left as Cfg>::Key;
/// The right key type of a correspondence.
pub(crate) type RightKey<C> = <<C as Correspondence>::Right as Cfg>::Key;

/// What one pass says about where its output keeps its input's values.
pub(crate) trait Correspondence {
    /// The input program.
    type Left: Cfg;
    /// The output program.
    type Right: Cfg;

    /// The input and the output program.
    fn sides(&self) -> (&Self::Left, &Self::Right);
    /// The havocs every startable point begins with; by default, none.
    fn base(&self) -> Relation {
        Relation::default()
    }
    /// Adds the function-entry relation to `rel` (which holds the base).
    fn entry(&self, rel: &mut Relation);
    /// The point-name prefix and the left blocks that are cut.
    fn cut(&self) -> (&'static str, Vec<String>);
    /// The right-side `(block, predecessor)` of the left edge `pred → block`;
    /// by default, the same names.
    fn right_edge(&self, block: &str, pred: &str) -> (String, Option<String>) {
        (block.to_owned(), Some(pred.to_owned()))
    }
    /// Where the right side keeps the left value `key`: the left value's
    /// name and width, the right register to havoc for it (if any) and the
    /// right expression equal to it. `None` relates nothing.
    fn locate(&self, key: &Key<Self>) -> Option<(Havoc, Option<Havoc>, ValueExpr)>;
    /// Adds the relation of the phis of `block` along the edge from `pred`;
    /// by default, each value they read is located like a live-in.
    fn phi_edge(&self, block: &str, pred: &str, rel: &mut Relation) {
        for key in &phi_uses_from(self.sides().0, block, pred) {
            self.relate(rel, key);
        }
    }
    /// The relation for the value `call` returns.
    fn call_ret(&self, call: &Call<Key<Self>>) -> Relation;
    /// Where the right program makes its `i`-th call, `call`; by default,
    /// where `call` sits. Temporary: only ISel overrides it, with its stale
    /// hinted locations, and ROADMAP item 1 deletes it with `Hints::call_sites`.
    fn right_call_loc(&self, _i: usize, call: &Call<RightKey<Self>>) -> (String, usize) {
        (call.block.clone(), call.index)
    }

    /// Relates the left value `key` to its location, unless `rel` already
    /// havocs it on the left.
    fn relate(&self, rel: &mut Relation, key: &Key<Self>) {
        let Some(((name, width), havoc, right)) = self.locate(key) else { return };
        if rel.havoc_left_once(&name, width) {
            if let Some((h, w)) = havoc {
                rel.havoc_right_once(&h, w);
            }
            rel.equalities.push((ValueExpr::Reg(name), right));
        }
    }
}

fn entry_label<C: Cfg>(cfg: &C) -> &str {
    C::label(&cfg.blocks()[0])
}

/// Walks the cut of `c`'s left program. `imprecise_liveness` forgets the
/// last equality of every block point and the last value live across every
/// call.
pub(crate) fn cut_sync_points<C: Correspondence>(c: &C, opts: VcOptions) -> SyncSet {
    let (left, right) = c.sides();
    let lv = Liveness::compute(left);
    let mut set = SyncSet::new();

    let mut entry = c.base();
    c.entry(&mut entry);
    set.push(SyncPoint::entry("p0", entry_label(left), entry_label(right), entry));
    set.push(SyncPoint::exit("p_exit", left.returns_value()));

    let preds = predecessors(left);
    let (prefix, cut) = c.cut();
    for block in &cut {
        for pred in preds.get(block).into_iter().flatten() {
            let mut rel = c.base();
            for key in lv.live_in.get(block).into_iter().flatten() {
                c.relate(&mut rel, key);
            }
            c.phi_edge(block, pred, &mut rel);
            if opts.imprecise_liveness {
                rel.equalities.pop();
            }
            let (right, right_pred) = c.right_edge(block, pred);
            set.push(SyncPoint::block_entry(
                format!("{prefix}{block}<-{pred}"),
                (block, Some(pred)),
                (&right, right_pred.as_deref()),
                rel,
            ));
        }
    }

    // Every pass keeps each call and its order, so the calls pair by position.
    let left_calls = calls(left);
    let right_calls = calls(right);
    assert_eq!(left_calls.len(), right_calls.len(), "the two sides make different calls");
    for (i, (call, right_call)) in left_calls.iter().zip(&right_calls).enumerate() {
        debug_assert_eq!((&call.callee, call.nth), (&right_call.callee, right_call.nth));
        let (right_block, right_index) = c.right_call_loc(i, right_call);
        // The call's own result is born at the return, not live across it.
        let mut live: Vec<_> = lv
            .live_after(left, &call.block, call.index)
            .into_iter()
            .filter(|k| call.result.as_ref() != Some(k))
            .collect();
        if opts.imprecise_liveness {
            live.pop();
        }
        let mut across = c.base();
        for key in &live {
            c.relate(&mut across, key);
        }
        set.points.extend(SyncPoint::call_pair(
            &call.callee,
            call.nth,
            (&call.block, call.index),
            (&right_block, right_index),
            call.num_args,
            across,
            c.call_ret(call),
        ));
    }
    set
}
