//! Byte encoding of subscription trees.
//!
//! The paper (§3.3) encodes subscription trees "on a byte level": one
//! byte for a Boolean operator, one byte for the child count of an
//! inner node, two bytes per child for its width, and four bytes per
//! predicate identifier. This module implements exactly that layout
//! plus a one-byte *node tag* that makes leaf/inner discrimination
//! explicit (see DESIGN.md, substitution 3):
//!
//! ```text
//! leaf  := TAG_PRED  id:u32le                     (5 bytes)
//! inner := tag:u8  n:u8  width[n]:u16le  child[n] (2 + 2n + Σwidth)
//! ```
//!
//! Child widths let the evaluator skip an already-decided child without
//! walking it — the short-circuit the `ablation_shortcircuit` bench
//! quantifies. Nodes hold at most 255 children; wider n-ary nodes are
//! transparently re-nested into same-operator chunks (semantics
//! preserved by associativity).

use std::error::Error;
use std::fmt;

use crate::{FulfilledSet, PredicateId};

/// Node tag of a predicate leaf.
pub(crate) const TAG_PRED: u8 = 0;
/// Node tag of an AND inner node.
pub(crate) const TAG_AND: u8 = 1;
/// Node tag of an OR inner node.
pub(crate) const TAG_OR: u8 = 2;
/// Node tag of a NOT inner node (always exactly one child).
pub(crate) const TAG_NOT: u8 = 3;

/// A subscription tree whose leaves are interned [`PredicateId`]s —
/// the form the non-canonical engine compiles
/// [`boolmatch_expr::Expr`]s into before byte-encoding them.
///
/// # Examples
///
/// ```
/// use boolmatch_core::{encode, decode, IdExpr, PredicateId};
///
/// fn p(i: usize) -> IdExpr { IdExpr::Pred(PredicateId::from_index(i)) }
/// let tree = IdExpr::And(vec![IdExpr::Or(vec![p(0), p(1)]), p(2)]);
/// let bytes = encode(&tree)?;
/// assert_eq!(decode(&bytes)?, tree);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdExpr {
    /// Leaf: an interned predicate.
    Pred(PredicateId),
    /// N-ary conjunction (at least one child).
    And(Vec<IdExpr>),
    /// N-ary disjunction (at least one child).
    Or(Vec<IdExpr>),
    /// Negation.
    Not(Box<IdExpr>),
}

impl IdExpr {
    /// Evaluates against a fulfilled-predicate set. This is the boxed
    /// reference evaluator the encoded evaluators are tested against
    /// (and the `ablation_encoding` bench compares with).
    pub fn eval(&self, set: &FulfilledSet) -> bool {
        match self {
            IdExpr::Pred(id) => set.contains(*id),
            IdExpr::And(cs) => cs.iter().all(|c| c.eval(set)),
            IdExpr::Or(cs) => cs.iter().any(|c| c.eval(set)),
            IdExpr::Not(c) => !c.eval(set),
        }
    }

    /// Number of predicate leaves (duplicates counted).
    pub fn leaf_count(&self) -> usize {
        match self {
            IdExpr::Pred(_) => 1,
            IdExpr::And(cs) | IdExpr::Or(cs) => cs.iter().map(IdExpr::leaf_count).sum(),
            IdExpr::Not(c) => c.leaf_count(),
        }
    }

    /// Visits every leaf predicate id, including duplicates.
    pub fn for_each_leaf(&self, f: &mut impl FnMut(PredicateId)) {
        match self {
            IdExpr::Pred(id) => f(*id),
            IdExpr::And(cs) | IdExpr::Or(cs) => {
                cs.iter().for_each(|c| c.for_each_leaf(f));
            }
            IdExpr::Not(c) => c.for_each_leaf(f),
        }
    }
}

/// Encoding was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// A child subtree encodes to more than `u16::MAX` bytes, which the
    /// paper's two-byte width field cannot represent. Carries the
    /// offending width.
    SubtreeTooWide {
        /// The encoded width that overflowed the field.
        width: usize,
    },
    /// An inner node has no children (malformed input; `boolmatch-expr`
    /// constructors never produce this).
    EmptyNode,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::SubtreeTooWide { width } => write!(
                f,
                "child subtree encodes to {width} bytes, over the 2-byte width limit of 65535"
            ),
            EncodeError::EmptyNode => write!(f, "inner node with no children"),
        }
    }
}

impl Error for EncodeError {}

/// A byte sequence failed to decode as a subscription tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended inside a node.
    UnexpectedEnd,
    /// An unknown node tag was found at the given offset.
    BadTag {
        /// The unknown tag byte.
        tag: u8,
        /// Offset of the tag in the input.
        offset: usize,
    },
    /// A node's declared child widths disagree with the input length.
    WidthMismatch,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "input ended inside a node"),
            DecodeError::BadTag { tag, offset } => {
                write!(f, "unknown node tag {tag:#04x} at offset {offset}")
            }
            DecodeError::WidthMismatch => write!(f, "child widths disagree with input length"),
        }
    }
}

impl Error for DecodeError {}

/// Maximum children per encoded node (one-byte child count, §3.3).
const MAX_CHILDREN: usize = 255;

/// Encodes a subscription tree into the byte layout described in the
/// module documentation ([`crate::encode`]-level docs).
///
/// # Errors
///
/// Returns [`EncodeError::SubtreeTooWide`] when a child subtree exceeds
/// 65 535 bytes (≈13 000 predicates — far beyond the paper's workloads)
/// and [`EncodeError::EmptyNode`] on malformed input.
pub fn encode(tree: &IdExpr) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::with_capacity(encoded_size_estimate(tree));
    encode_into(tree, &mut out)?;
    Ok(out)
}

fn encoded_size_estimate(tree: &IdExpr) -> usize {
    match tree {
        IdExpr::Pred(_) => 5,
        IdExpr::And(cs) | IdExpr::Or(cs) => {
            2 + 2 * cs.len() + cs.iter().map(encoded_size_estimate).sum::<usize>()
        }
        IdExpr::Not(c) => 4 + encoded_size_estimate(c),
    }
}

fn encode_into(tree: &IdExpr, out: &mut Vec<u8>) -> Result<(), EncodeError> {
    match tree {
        IdExpr::Pred(id) => {
            out.push(TAG_PRED);
            out.extend_from_slice(&id.raw().to_le_bytes());
            Ok(())
        }
        IdExpr::And(cs) => encode_inner(TAG_AND, cs, out),
        IdExpr::Or(cs) => encode_inner(TAG_OR, cs, out),
        IdExpr::Not(c) => {
            let children = std::slice::from_ref(c.as_ref());
            encode_inner(TAG_NOT, children, out)
        }
    }
}

fn encode_inner(tag: u8, children: &[IdExpr], out: &mut Vec<u8>) -> Result<(), EncodeError> {
    if children.is_empty() {
        return Err(EncodeError::EmptyNode);
    }
    if children.len() > MAX_CHILDREN {
        // Re-nest into same-operator chunks; `Not` never has >1 child.
        debug_assert!(tag == TAG_AND || tag == TAG_OR);
        let chunked: Vec<IdExpr> = children
            .chunks(MAX_CHILDREN)
            .map(|chunk| {
                if tag == TAG_AND {
                    IdExpr::And(chunk.to_vec())
                } else {
                    IdExpr::Or(chunk.to_vec())
                }
            })
            .collect();
        return encode_inner(tag, &chunked, out);
    }

    out.push(tag);
    out.push(children.len() as u8);
    let widths_at = out.len();
    // Reserve the width table; fill it in after encoding the children.
    out.resize(widths_at + 2 * children.len(), 0);
    for (i, child) in children.iter().enumerate() {
        let start = out.len();
        encode_into(child, out)?;
        let width = out.len() - start;
        let width16 = u16::try_from(width).map_err(|_| EncodeError::SubtreeTooWide { width })?;
        out[widths_at + 2 * i..widths_at + 2 * i + 2].copy_from_slice(&width16.to_le_bytes());
    }
    Ok(())
}

/// Decodes a byte sequence produced by [`encode`].
///
/// # Errors
///
/// Returns a [`DecodeError`] describing the malformation. Note that
/// chunked nodes (created for >255 children) decode to their nested
/// form, so `decode(encode(t))` equals `t` only for trees already
/// within the 255-child limit; semantics are preserved in all cases.
pub fn decode(bytes: &[u8]) -> Result<IdExpr, DecodeError> {
    let (tree, consumed) = decode_node(bytes, 0)?;
    if consumed != bytes.len() {
        return Err(DecodeError::WidthMismatch);
    }
    Ok(tree)
}

fn decode_node(bytes: &[u8], offset: usize) -> Result<(IdExpr, usize), DecodeError> {
    let tag = *bytes.get(offset).ok_or(DecodeError::UnexpectedEnd)?;
    match tag {
        TAG_PRED => {
            let raw = bytes
                .get(offset + 1..offset + 5)
                .ok_or(DecodeError::UnexpectedEnd)?;
            let id = u32::from_le_bytes(raw.try_into().expect("4 bytes"));
            Ok((IdExpr::Pred(PredicateId::from_raw(id)), 5))
        }
        TAG_AND | TAG_OR | TAG_NOT => {
            let n = *bytes.get(offset + 1).ok_or(DecodeError::UnexpectedEnd)? as usize;
            if n == 0 || (tag == TAG_NOT && n != 1) {
                return Err(DecodeError::WidthMismatch);
            }
            let mut children = Vec::with_capacity(n);
            let widths_at = offset + 2;
            let mut child_at = widths_at + 2 * n;
            for i in 0..n {
                let w = bytes
                    .get(widths_at + 2 * i..widths_at + 2 * i + 2)
                    .ok_or(DecodeError::UnexpectedEnd)?;
                let width = u16::from_le_bytes(w.try_into().expect("2 bytes")) as usize;
                let (child, consumed) = decode_node(bytes, child_at)?;
                if consumed != width {
                    return Err(DecodeError::WidthMismatch);
                }
                children.push(child);
                child_at += width;
            }
            let node = match tag {
                TAG_AND => IdExpr::And(children),
                TAG_OR => IdExpr::Or(children),
                _ => IdExpr::Not(Box::new(children.pop().expect("n == 1"))),
            };
            Ok((node, child_at - offset))
        }
        other => Err(DecodeError::BadTag { tag: other, offset }),
    }
}

/// Visits every leaf predicate id in an encoded tree without building
/// an [`IdExpr`] — the unsubscription fast path.
pub(crate) fn for_each_encoded_leaf(bytes: &[u8], f: &mut impl FnMut(PredicateId)) {
    let mut offset = 0;
    while offset < bytes.len() {
        match bytes[offset] {
            TAG_PRED => {
                let raw: [u8; 4] = bytes[offset + 1..offset + 5]
                    .try_into()
                    .expect("encoded tree is well-formed");
                f(PredicateId::from_raw(u32::from_le_bytes(raw)));
                offset += 5;
            }
            _ => {
                // Inner node: skip the header; children follow inline.
                let n = bytes[offset + 1] as usize;
                offset += 2 + 2 * n;
            }
        }
    }
}

/// Appends the **access set** of an encoded tree to `out` and returns
/// whether the tree has one. An access set is a set of predicates at
/// least one of which is fulfilled whenever the tree is true, so a
/// subscription indexed under its access set only is still a candidate
/// for every event it matches (Fabret et al., SIGMOD 2001, call these
/// access predicates):
///
/// * a leaf's set is the leaf itself; `NOT` has none;
/// * `OR` takes the union of its children's sets, and has none if any
///   child has none;
/// * `AND` takes the child set with the fewest predicate leaves; ties
///   go to the set with more `=` leaves (as `is_eq` reports them), then
///   to the first such child. It has none only if no child has one.
///
/// The walk reads the bytes in place: chunked nodes (more than 255
/// children) are walked as encoded, so subscribe and unsubscribe, both
/// walking the stored bytes, always agree. `out` may receive duplicate
/// ids (a predicate occurring twice in the chosen set). A tree without
/// an access set leaves `out` as it was. Malformed bytes count as
/// having no access set rather than panicking.
pub(crate) fn access_set(
    bytes: &[u8],
    is_eq: &impl Fn(PredicateId) -> bool,
    out: &mut Vec<PredicateId>,
) -> bool {
    access_node(bytes, 0, is_eq, out).is_some()
}

/// The access set of the node at `offset`, appended to `out`; returns
/// its count of `=` leaves, or `None` (with `out` unchanged) when the
/// node has no access set.
fn access_node(
    bytes: &[u8],
    offset: usize,
    is_eq: &impl Fn(PredicateId) -> bool,
    out: &mut Vec<PredicateId>,
) -> Option<usize> {
    let tag = *bytes.get(offset)?;
    if tag == TAG_PRED {
        let raw = bytes.get(offset + 1..offset + 5)?;
        let id = PredicateId::from_raw(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]));
        out.push(id);
        return Some(usize::from(is_eq(id)));
    }
    if tag != TAG_AND && tag != TAG_OR {
        return None;
    }
    let n = usize::from(*bytes.get(offset + 1)?);
    let widths_at = offset + 2;
    let mut child_at = widths_at + 2 * n;
    let start = out.len();
    // OR: the summed `=` count of the union so far. AND: the best child
    // set so far, kept at `out[start..]`, as (leaves, `=` leaves).
    let mut union_eqs = 0;
    let mut best: Option<(usize, usize)> = None;
    for i in 0..n {
        let Some(w) = bytes.get(widths_at + 2 * i..widths_at + 2 * i + 2) else {
            out.truncate(start);
            return None;
        };
        let child_start = out.len();
        let child = access_node(bytes, child_at, is_eq, out);
        child_at += usize::from(u16::from_le_bytes([w[0], w[1]]));
        match (tag, child) {
            (TAG_OR, Some(eqs)) => union_eqs += eqs,
            (TAG_OR, None) => {
                out.truncate(start);
                return None;
            }
            (_, None) => {}
            (_, Some(eqs)) => {
                let len = out.len() - child_start;
                match best {
                    Some((best_len, best_eqs))
                        if best_len < len || (best_len == len && best_eqs >= eqs) =>
                    {
                        out.truncate(child_start);
                    }
                    _ => {
                        out.copy_within(child_start.., start);
                        out.truncate(start + len);
                        best = Some((len, eqs));
                    }
                }
            }
        }
    }
    if tag == TAG_OR {
        Some(union_eqs)
    } else {
        best.map(|(_, eqs)| eqs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> IdExpr {
        IdExpr::Pred(PredicateId::from_index(i))
    }

    #[test]
    fn leaf_encoding_layout() {
        let bytes = encode(&p(0x01020304)).unwrap();
        assert_eq!(bytes, vec![TAG_PRED, 0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn inner_encoding_layout() {
        // AND of two leaves: tag, n=2, w0=5, w1=5, leaf, leaf
        let bytes = encode(&IdExpr::And(vec![p(1), p(2)])).unwrap();
        assert_eq!(bytes.len(), 2 + 4 + 10);
        assert_eq!(bytes[0], TAG_AND);
        assert_eq!(bytes[1], 2);
        assert_eq!(u16::from_le_bytes([bytes[2], bytes[3]]), 5);
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 5);
    }

    #[test]
    fn round_trip_various_shapes() {
        let trees = [
            p(0),
            IdExpr::Not(Box::new(p(1))),
            IdExpr::And(vec![p(0), p(1), p(2)]),
            IdExpr::Or(vec![
                IdExpr::And(vec![p(0), IdExpr::Not(Box::new(p(1)))]),
                p(2),
                IdExpr::Or(vec![p(3), p(4)]),
            ]),
        ];
        for tree in trees {
            let bytes = encode(&tree).unwrap();
            assert_eq!(decode(&bytes).unwrap(), tree);
        }
    }

    #[test]
    fn wide_nodes_are_chunked_and_equivalent() {
        let children: Vec<IdExpr> = (0..1000).map(p).collect();
        let tree = IdExpr::Or(children);
        let bytes = encode(&tree).unwrap();
        let decoded = decode(&bytes).unwrap();
        // Chunked shape differs, semantics agree.
        let mut set = FulfilledSet::with_universe(1000);
        assert!(!decoded.eval(&set));
        set.insert(PredicateId::from_index(999));
        assert!(decoded.eval(&set));
        assert!(tree.eval(&set));
        assert_eq!(decoded.leaf_count(), 1000);
    }

    #[test]
    fn empty_node_is_rejected() {
        assert_eq!(
            encode(&IdExpr::And(vec![])).unwrap_err(),
            EncodeError::EmptyNode
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(decode(&[]), Err(DecodeError::UnexpectedEnd)));
        assert!(matches!(
            decode(&[9, 1, 2]),
            Err(DecodeError::BadTag { tag: 9, offset: 0 })
        ));
        assert!(matches!(
            decode(&[TAG_PRED, 1]),
            Err(DecodeError::UnexpectedEnd)
        ));
        // Trailing bytes after a valid leaf.
        let mut bytes = encode(&p(1)).unwrap();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_not_with_two_children() {
        // Hand-craft NOT with n=2.
        let leaf = encode(&p(0)).unwrap();
        let mut bytes = vec![TAG_NOT, 2, 5, 0, 5, 0];
        bytes.extend_from_slice(&leaf);
        bytes.extend_from_slice(&leaf);
        assert!(matches!(decode(&bytes), Err(DecodeError::WidthMismatch)));
    }

    #[test]
    fn encoded_leaf_walk_matches_id_expr() {
        let tree = IdExpr::And(vec![
            IdExpr::Or(vec![p(5), p(6), p(5)]),
            IdExpr::Not(Box::new(p(7))),
        ]);
        let bytes = encode(&tree).unwrap();
        let mut from_bytes = Vec::new();
        for_each_encoded_leaf(&bytes, &mut |id| from_bytes.push(id.index()));
        let mut from_tree = Vec::new();
        tree.for_each_leaf(&mut |id| from_tree.push(id.index()));
        assert_eq!(from_bytes, from_tree);
        assert_eq!(from_bytes, vec![5, 6, 5, 7]);
    }

    fn access(tree: &IdExpr, eqs: &[usize]) -> Option<Vec<usize>> {
        let bytes = encode(tree).unwrap();
        let mut out = vec![PredicateId::from_index(77)];
        let found = access_set(&bytes, &|id| eqs.contains(&id.index()), &mut out);
        assert_eq!(out[0].index(), 77, "earlier entries are kept");
        let set: Vec<usize> = out[1..].iter().map(|id| id.index()).collect();
        if !found {
            assert!(set.is_empty(), "no access set leaves `out` unchanged");
        }
        found.then_some(set)
    }

    fn not(t: IdExpr) -> IdExpr {
        IdExpr::Not(Box::new(t))
    }

    #[test]
    fn access_sets_follow_the_definition() {
        assert_eq!(access(&p(3), &[]), Some(vec![3]));
        assert_eq!(access(&not(p(3)), &[]), None);
        assert_eq!(access(&IdExpr::Or(vec![p(0), not(p(1))]), &[]), None);
        assert_eq!(access(&IdExpr::Or(vec![p(0), p(1)]), &[]), Some(vec![0, 1]));
        assert_eq!(access(&IdExpr::And(vec![not(p(0)), not(p(1))]), &[]), None);
        // AND: the smallest child set; a child without one is skipped.
        let tree = IdExpr::And(vec![IdExpr::Or(vec![p(0), p(1)]), not(p(2)), p(3)]);
        assert_eq!(access(&tree, &[]), Some(vec![3]));
        let tree = IdExpr::And(vec![not(p(0)), IdExpr::Or(vec![p(1), p(2)])]);
        assert_eq!(access(&tree, &[]), Some(vec![1, 2]));
        // Ties: more `=` leaves first, then the first child.
        assert_eq!(access(&IdExpr::And(vec![p(0), p(1)]), &[]), Some(vec![0]));
        assert_eq!(access(&IdExpr::And(vec![p(0), p(1)]), &[1]), Some(vec![1]));
        let tree = IdExpr::And(vec![
            IdExpr::Or(vec![p(0), p(1)]),
            IdExpr::Or(vec![p(2), p(3)]),
        ]);
        assert_eq!(access(&tree, &[3]), Some(vec![2, 3]));
        // A repeated leaf stays repeated; callers deduplicate.
        let tree = IdExpr::Or(vec![p(1), IdExpr::And(vec![p(1), p(2)])]);
        assert_eq!(access(&tree, &[]), Some(vec![1, 1]));
    }

    #[test]
    fn access_sets_walk_chunked_nodes_as_encoded() {
        // 300 AND leaves encode as AND(AND(255), AND(45)); the only `=`
        // leaf sits in the second chunk and still wins the tie.
        let tree = IdExpr::And((0..300).map(p).collect());
        assert_eq!(access(&tree, &[280]), Some(vec![280]));
        let tree = IdExpr::Or((0..300).map(p).collect());
        assert_eq!(access(&tree, &[]), Some((0..300).collect()));
        let mut leaves: Vec<IdExpr> = (0..299).map(p).collect();
        leaves.push(not(p(299)));
        assert_eq!(access(&IdExpr::Or(leaves), &[]), None);
    }

    #[test]
    fn paper_fig1_encoding_size() {
        // (a>10 ∨ a<=5 ∨ b=1) ∧ (c<=20 ∨ c=30 ∨ d=5): with our 1-byte
        // tag the size is: root 2+4, two ORs (2+6) each, six leaves 5B
        // each = 6 + 16 + 30 = 52 bytes.
        let or1 = IdExpr::Or(vec![p(0), p(1), p(2)]);
        let or2 = IdExpr::Or(vec![p(3), p(4), p(5)]);
        let tree = IdExpr::And(vec![or1, or2]);
        assert_eq!(encode(&tree).unwrap().len(), 52);
    }

    #[test]
    fn size_estimate_is_exact_for_narrow_trees() {
        let tree = IdExpr::And(vec![IdExpr::Or(vec![p(0), p(1)]), p(2)]);
        assert_eq!(encoded_size_estimate(&tree), encode(&tree).unwrap().len());
    }
}
