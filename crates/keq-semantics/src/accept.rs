//! Acceptability relations (paper §2 and §4.6).
//!
//! Cut-bisimulation is parameterized by a binary relation on states — the
//! *acceptability* (compatibility, indistinguishability) relation — that
//! says which cross-language states may be considered "the same". Most of
//! the relation is carried by the synchronization points' equality
//! constraints plus the shared memory model; what remains is the treatment
//! of undefined-behavior error states:
//!
//! * a **left** (source, e.g. LLVM) error state is related to *any* right
//!   state — once the source program exhibits UB, the compiler owes
//!   nothing, and KEQ "automatically reverts to checking refinement";
//! * a **right** (target, e.g. Virtual x86) error state is related only to
//!   a left error state of the *same kind* — the §5.2 load-narrowing bug is
//!   caught exactly because the x86 side reaches an out-of-bounds error the
//!   LLVM side cannot match.

use crate::config::Status;

/// How two statuses relate under the acceptability policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorRelation {
    /// The left state is an error state that absorbs any right state.
    LeftErrorAbsorbs,
    /// Both states are error states of compatible kinds.
    MatchedErrors,
    /// Neither state is an error state; ordinary constraints apply.
    NotErrors,
    /// The statuses cannot be related (e.g. an unmatched right error).
    Unrelated,
}

/// Classifies a pair of statuses under the paper's policy (§4.6): a left
/// error absorbs any right state, and a right error relates only to a left
/// error of the same kind.
pub fn relate(left: &Status, right: &Status) -> ErrorRelation {
    match (left, right) {
        (Status::Error(lk), Status::Error(rk)) if lk == rk => ErrorRelation::MatchedErrors,
        (Status::Error(_), _) => ErrorRelation::LeftErrorAbsorbs,
        (_, Status::Error(_)) => ErrorRelation::Unrelated,
        _ => ErrorRelation::NotErrors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ErrorKind;

    #[test]
    fn paper_policy_left_error_absorbs_anything() {
        let err = Status::Error(ErrorKind::SignedOverflow);
        let run = Status::Running;
        assert_eq!(relate(&err, &run), ErrorRelation::LeftErrorAbsorbs);
        let exited = Status::Exited { ret: None };
        assert_eq!(relate(&err, &exited), ErrorRelation::LeftErrorAbsorbs);
    }

    #[test]
    fn paper_policy_right_error_needs_same_kind() {
        let oob = Status::Error(ErrorKind::OutOfBounds);
        let run = Status::Running;
        assert_eq!(relate(&run, &oob), ErrorRelation::Unrelated);
        assert_eq!(relate(&oob, &oob), ErrorRelation::MatchedErrors);
        let ovf = Status::Error(ErrorKind::SignedOverflow);
        // Mismatched kinds: left error still absorbs under the paper policy.
        assert_eq!(relate(&ovf, &oob), ErrorRelation::LeftErrorAbsorbs);
    }

    #[test]
    fn non_error_pairs_fall_through() {
        assert_eq!(relate(&Status::Running, &Status::Running), ErrorRelation::NotErrors);
    }
}
