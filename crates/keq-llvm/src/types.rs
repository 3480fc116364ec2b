//! The LLVM IR type subset of the paper's §4.2.
//!
//! Integer types `i1/i8/i16/i32/i64` (plus arbitrary widths up to 128 so the
//! §5.2 `i96` bug case is expressible), arbitrarily nested array and struct
//! types, and the corresponding pointer types.
//!
//! Layout note: the paper's memory abstraction "does not yet take alignment
//! requirements into consideration", so struct layout here is packed
//! (field offsets are running byte sums) and all loads/stores are
//! alignment-oblivious. Pointers are 64 bits.

use std::fmt;

/// Size of a pointer in bytes (x86-64 data layout).
pub const PTR_BYTES: u64 = 8;

/// An LLVM type in the supported fragment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `iN` — integer of `N` bits, `1..=128`.
    Int(u32),
    /// Pointer to a pointee type.
    Ptr(Box<Type>),
    /// `[N x T]`.
    Array(u64, Box<Type>),
    /// `{T1, T2, …}` (packed layout; see module docs).
    Struct(Vec<Type>),
    /// `void` — only usable as a function return type.
    Void,
}

impl Type {
    /// `i1`.
    pub const I1: Type = Type::Int(1);
    /// `i8`.
    pub const I8: Type = Type::Int(8);
    /// `i16`.
    pub const I16: Type = Type::Int(16);
    /// `i32`.
    pub const I32: Type = Type::Int(32);
    /// `i64`.
    pub const I64: Type = Type::Int(64);

    /// Builds a pointer to `self`.
    pub fn ptr_to(self) -> Type {
        Type::Ptr(Box::new(self))
    }

    /// The bit width of an integer type.
    pub fn int_width(&self) -> Option<u32> {
        match self {
            Type::Int(w) => Some(*w),
            _ => None,
        }
    }

    /// The width in bits a value of this type occupies in a register:
    /// integers keep their width, pointers are 64 bits.
    ///
    /// # Panics
    ///
    /// Panics for aggregate and void types, which are not first-class in
    /// the supported fragment.
    pub fn value_bits(&self) -> u32 {
        match self {
            Type::Int(w) => *w,
            Type::Ptr(_) => 64,
            other => panic!("type {other} is not a first-class value type"),
        }
    }

    /// Size in bytes when stored in memory.
    ///
    /// Integer types occupy `ceil(bits / 8)` bytes (so `i96` is 12 bytes,
    /// matching the paper's Fig. 10 discussion; `i1` occupies one byte).
    pub fn store_bytes(&self) -> u64 {
        match self {
            Type::Int(w) => u64::from(w.div_ceil(8)),
            Type::Ptr(_) => PTR_BYTES,
            Type::Array(n, elem) => n * elem.store_bytes(),
            Type::Struct(fields) => fields.iter().map(Type::store_bytes).sum(),
            Type::Void => 0,
        }
    }

    /// Byte offset of struct field `i`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a struct or `i` is out of range.
    pub fn field_offset(&self, i: usize) -> u64 {
        match self {
            Type::Struct(fields) => {
                assert!(i < fields.len(), "field index {i} out of range");
                fields[..i].iter().map(Type::store_bytes).sum()
            }
            other => panic!("field_offset on non-struct {other}"),
        }
    }

    /// The type obtained by indexing one step into this aggregate.
    ///
    /// Arrays index by any value; structs require the (constant) index.
    pub fn index_into(&self, idx: Option<u64>) -> Option<&Type> {
        match self {
            Type::Array(_, elem) => Some(elem),
            Type::Struct(fields) => fields.get(idx? as usize),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int(w) => write!(f, "i{w}"),
            Type::Ptr(p) => write!(f, "{p}*"),
            Type::Array(n, elem) => write!(f, "[{n} x {elem}]"),
            Type::Struct(fields) => {
                write!(f, "{{")?;
                for (i, t) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "}}")
            }
            Type::Void => write!(f, "void"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(Type::I32.store_bytes(), 4);
        assert_eq!(Type::Int(96).store_bytes(), 12);
        assert_eq!(Type::I1.store_bytes(), 1);
        assert_eq!(Type::I8.ptr_to().store_bytes(), 8);
        assert_eq!(Type::Array(8, Box::new(Type::I8)).store_bytes(), 8);
        let s = Type::Struct(vec![Type::I8, Type::I32, Type::I16]);
        assert_eq!(s.store_bytes(), 7, "packed layout");
        assert_eq!(s.field_offset(0), 0);
        assert_eq!(s.field_offset(1), 1);
        assert_eq!(s.field_offset(2), 5);
    }

    #[test]
    fn value_bits_of_pointer() {
        assert_eq!(Type::I32.ptr_to().value_bits(), 64);
        assert_eq!(Type::Int(96).value_bits(), 96);
    }

    #[test]
    fn display_roundtrip_shapes() {
        assert_eq!(Type::I32.to_string(), "i32");
        assert_eq!(Type::I32.ptr_to().to_string(), "i32*");
        assert_eq!(Type::Array(4, Box::new(Type::I8)).to_string(), "[4 x i8]");
        assert_eq!(Type::Struct(vec![Type::I8, Type::I64]).to_string(), "{i8, i64}");
    }

    #[test]
    fn index_into_aggregates() {
        let arr = Type::Array(4, Box::new(Type::I16));
        assert_eq!(arr.index_into(None), Some(&Type::I16));
        let s = Type::Struct(vec![Type::I8, Type::I64]);
        assert_eq!(s.index_into(Some(1)), Some(&Type::I64));
        assert_eq!(s.index_into(Some(2)), None);
        assert_eq!(Type::I8.index_into(Some(0)), None);
    }
}
