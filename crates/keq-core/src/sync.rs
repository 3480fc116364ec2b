//! Synchronization points — the verification conditions KEQ consumes.
//!
//! A synchronization point (paper §4.5) is a pair of symbolic states,
//! identified by location patterns, together with equality constraints over
//! the values live at those locations. The set of points doubles as the
//! *cut* definition: a symbolic state is a cut state exactly when its
//! location matches some point's pattern on its side.

use keq_semantics::{CtrlLoc, LocPattern, MemRegion};

/// A value expression resolvable against one side's configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValueExpr {
    /// The value of a named register/local.
    Reg(String),
    /// A bit slice `[hi:lo]` of a named register — how the x86 side names
    /// sub-register views (`edi` is `RegSlice{rdi, 31, 0}`).
    RegSlice {
        /// Register name.
        name: String,
        /// High bit (inclusive).
        hi: u32,
        /// Low bit.
        lo: u32,
    },
    /// A constant of the given width.
    Const {
        /// Constant value (masked to `width`).
        value: u128,
        /// Bit width.
        width: u32,
    },
    /// The function's return value (meaningful at `Exit` points).
    Ret,
    /// The `i`-th argument of the pending call (at `BeforeCall` points).
    Arg(usize),
    /// The `width`-bit little-endian value stored at the concrete address
    /// `addr` in the side's memory — how a spilled value is named: the
    /// allocated side keeps it in a stack slot, not a register.
    Slot {
        /// Absolute byte address of the slot.
        addr: u64,
        /// Value width in bits (a positive multiple of 8).
        width: u32,
    },
}

impl ValueExpr {
    /// Convenience constructor for a register expression.
    pub fn reg(name: impl Into<String>) -> Self {
        ValueExpr::Reg(name.into())
    }
}

/// One side (left or right) of a synchronization point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SideSpec {
    /// Which configurations this side covers.
    pub pattern: LocPattern,
    /// Where symbolic execution starts when this point is used as a source
    /// pair in Algorithm 1 (`None` for arrival-only points: exits and
    /// before-call points).
    pub start: Option<CtrlLoc>,
    /// Registers that are live here, with their widths; each is assigned a
    /// fresh symbolic variable at instantiation. A width of `0` denotes a
    /// boolean register (used for x86 condition flags).
    pub havoc_regs: Vec<(String, u32)>,
}

impl SideSpec {
    /// An arrival-only side (exit or before-call).
    pub fn arrival(pattern: LocPattern) -> Self {
        SideSpec { pattern, start: None, havoc_regs: Vec::new() }
    }

    /// A startable side.
    pub fn startable(pattern: LocPattern, start: CtrlLoc, havoc_regs: Vec<(String, u32)>) -> Self {
        SideSpec { pattern, start: Some(start), havoc_regs }
    }
}

/// A synchronization point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncPoint {
    /// Point name (e.g. `p0`, `p1`, … as in the paper's Fig. 3).
    pub name: String,
    /// Left (source-language) side.
    pub left: SideSpec,
    /// Right (target-language) side.
    pub right: SideSpec,
    /// Equality constraints relating the two sides' values. Assumed when
    /// the point is used as a start pair; proved when it is an arrival.
    pub equalities: Vec<(ValueExpr, ValueExpr)>,
    /// Whether the two memories must be equal here (always `true` in the
    /// ISel system; part of the acceptability relation, §4.5 "Memory
    /// state").
    pub mem_equal: bool,
}

impl SyncPoint {
    /// `true` if Algorithm 1 should start symbolic execution from here.
    pub fn is_startable(&self) -> bool {
        self.left.start.is_some() && self.right.start.is_some()
    }

    /// The function-entry point, starting each side at its entry block.
    pub fn entry(
        name: impl Into<String>,
        left_block: impl Into<String>,
        right_block: impl Into<String>,
        rel: Relation,
    ) -> Self {
        Self::startable(
            name,
            (LocPattern::Entry, CtrlLoc::entry(left_block)),
            (LocPattern::Entry, CtrlLoc::entry(right_block)),
            rel,
        )
    }

    /// A block-entry point: each side is `(block, prev)`, matching and
    /// starting at `block` entered from `prev` (`None`: from anywhere).
    pub fn block_entry(
        name: impl Into<String>,
        left: (&str, Option<&str>),
        right: (&str, Option<&str>),
        rel: Relation,
    ) -> Self {
        let side = |(block, prev): (&str, Option<&str>)| {
            let prev = prev.map(str::to_owned);
            (
                LocPattern::BlockEntry { block: block.to_owned(), prev: prev.clone() },
                CtrlLoc::block_start(block, prev),
            )
        };
        Self::startable(name, side(left), side(right), rel)
    }

    /// The function-exit point: equal memories, and equal return values
    /// when `ret`.
    pub fn exit(name: impl Into<String>, ret: bool) -> Self {
        SyncPoint {
            name: name.into(),
            left: SideSpec::arrival(LocPattern::Exit),
            right: SideSpec::arrival(LocPattern::Exit),
            equalities: if ret { vec![(ValueExpr::Ret, ValueExpr::Ret)] } else { vec![] },
            mem_equal: true,
        }
    }

    /// The two points around the `nth` call to `callee`, given each side's
    /// call instruction as `(block, index)`: `call:callee#nth`, where both
    /// sides arrive with equal arguments and equal `across` values, and
    /// `ret:callee#nth`, which starts each side just after its call under
    /// `across` (the values live across the call) followed by `ret` (the
    /// returned value).
    pub fn call_pair(
        callee: &str,
        nth: usize,
        left_call: (&str, usize),
        right_call: (&str, usize),
        num_args: usize,
        mut across: Relation,
        ret: Relation,
    ) -> [Self; 2] {
        let arrive =
            || SideSpec::arrival(LocPattern::BeforeCall { callee: callee.to_owned(), nth });
        let resume = |(block, index): (&str, usize)| {
            (
                LocPattern::AfterCall { callee: callee.to_owned(), nth },
                CtrlLoc { block: block.to_owned(), index: index + 1, prev: None },
            )
        };
        let before = (0..num_args)
            .map(|i| (ValueExpr::Arg(i), ValueExpr::Arg(i)))
            .chain(across.equalities.iter().cloned())
            .collect();
        across.left_havoc.extend(ret.left_havoc);
        across.right_havoc.extend(ret.right_havoc);
        across.equalities.extend(ret.equalities);
        [
            SyncPoint {
                name: format!("call:{callee}#{nth}"),
                left: arrive(),
                right: arrive(),
                equalities: before,
                mem_equal: true,
            },
            Self::startable(
                format!("ret:{callee}#{nth}"),
                resume(left_call),
                resume(right_call),
                across,
            ),
        ]
    }

    fn startable(
        name: impl Into<String>,
        (left_pattern, left_start): (LocPattern, CtrlLoc),
        (right_pattern, right_start): (LocPattern, CtrlLoc),
        rel: Relation,
    ) -> Self {
        SyncPoint {
            name: name.into(),
            left: SideSpec::startable(left_pattern, left_start, rel.left_havoc),
            right: SideSpec::startable(right_pattern, right_start, rel.right_havoc),
            equalities: rel.equalities,
            mem_equal: true,
        }
    }
}

/// The pass-specific part of a startable point (§4.5): what each side
/// havocs and which left value equals which right value. The
/// [`SyncPoint`] constructors wrap it in the cut's shape.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Relation {
    /// Left registers assigned fresh symbolic values, with widths.
    pub left_havoc: Vec<(String, u32)>,
    /// Right registers assigned fresh symbolic values, with widths.
    pub right_havoc: Vec<(String, u32)>,
    /// `(left, right)` value pairs that are equal here.
    pub equalities: Vec<(ValueExpr, ValueExpr)>,
}

impl Relation {
    /// A relation with the given havocs and no equalities yet.
    pub fn havocking(left_havoc: Vec<(String, u32)>, right_havoc: Vec<(String, u32)>) -> Self {
        Relation { left_havoc, right_havoc, equalities: Vec::new() }
    }

    /// Havocs `name` on the left unless it already is; `true` when added.
    pub fn havoc_left_once(&mut self, name: &str, width: u32) -> bool {
        havoc_once(&mut self.left_havoc, name, width)
    }

    /// Havocs `name` on the right unless it already is.
    pub fn havoc_right_once(&mut self, name: &str, width: u32) {
        havoc_once(&mut self.right_havoc, name, width);
    }
}

fn havoc_once(havoc: &mut Vec<(String, u32)>, name: &str, width: u32) -> bool {
    let fresh = !havoc.iter().any(|(n, _)| n == name);
    if fresh {
        havoc.push((name.to_owned(), width));
    }
    fresh
}

/// The full synchronization relation for one function pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncSet {
    /// All points.
    pub points: Vec<SyncPoint>,
    /// Memory regions private to the right side (e.g. a spill frame the
    /// allocated program writes but the source program cannot see). Write
    /// indices inside these regions are excluded from every `mem_equal`
    /// obligation; spilled values are instead related explicitly through
    /// [`ValueExpr::Slot`] equalities.
    pub right_private: Vec<MemRegion>,
}

impl SyncSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a point.
    pub fn push(&mut self, point: SyncPoint) {
        self.points.push(point);
    }

    /// Iterates over the points.
    pub fn iter(&self) -> impl Iterator<Item = &SyncPoint> {
        self.points.iter()
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no points exist.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All block-entry patterns on the chosen side — the side's cut
    /// locations for block starts.
    pub fn block_patterns(&self, side: Side) -> Vec<&LocPattern> {
        self.points
            .iter()
            .map(|p| match side {
                Side::Left => &p.left.pattern,
                Side::Right => &p.right.pattern,
            })
            .filter(|p| matches!(p, LocPattern::BlockEntry { .. }))
            .collect()
    }
}

/// Which side of the relation a pattern belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Source language (e.g. LLVM IR).
    Left,
    /// Target language (e.g. Virtual x86).
    Right,
}

impl Side {
    /// Short label for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Side::Left => "left",
            Side::Right => "right",
        }
    }
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn startable_detection() {
        let entry = SyncPoint {
            name: "p0".into(),
            left: SideSpec::startable(
                LocPattern::Entry,
                CtrlLoc::entry("entry"),
                vec![("%a0".into(), 32)],
            ),
            right: SideSpec::startable(
                LocPattern::Entry,
                CtrlLoc::entry("BB0"),
                vec![("edi".into(), 32)],
            ),
            equalities: vec![(ValueExpr::reg("%a0"), ValueExpr::reg("edi"))],
            mem_equal: true,
        };
        assert!(entry.is_startable());
        let exit = SyncPoint {
            name: "p3".into(),
            left: SideSpec::arrival(LocPattern::Exit),
            right: SideSpec::arrival(LocPattern::Exit),
            equalities: vec![(ValueExpr::Ret, ValueExpr::Ret)],
            mem_equal: true,
        };
        assert!(!exit.is_startable());
    }

    #[test]
    fn block_patterns_filter() {
        let mut set = SyncSet::new();
        set.push(SyncPoint {
            name: "p1".into(),
            left: SideSpec::startable(
                LocPattern::BlockEntry { block: "loop".into(), prev: Some("entry".into()) },
                CtrlLoc::block_start("loop", Some("entry".into())),
                vec![],
            ),
            right: SideSpec::arrival(LocPattern::Exit),
            equalities: vec![],
            mem_equal: true,
        });
        assert_eq!(set.block_patterns(Side::Left).len(), 1);
        assert_eq!(set.block_patterns(Side::Right).len(), 0);
    }
}
