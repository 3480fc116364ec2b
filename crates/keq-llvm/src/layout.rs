//! Address-space layout shared by both sides of a validation.
//!
//! The common memory model (paper §4.4) is a single flat byte array, so both
//! the LLVM and the Virtual x86 semantics must agree on where globals and
//! stack slots live. The ISel pass reuses the layout computed here, exactly
//! as the real compiler fixes a frame layout that both representations share
//! through the calling convention.

use std::collections::BTreeMap;

use keq_semantics::MemLayout;
use keq_smt::sort::{mask, to_signed};

use crate::ast::{Function, Instr, Module, Operand};
use crate::types::Type;

/// Base address of the first global.
pub const GLOBAL_BASE: u64 = 0x0001_0000;

/// Base address of the (single) stack frame.
pub const FRAME_BASE: u64 = 0x7fff_0000;

/// Concrete placement of globals and the function's frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Layout {
    /// Region table for bounds checking.
    pub mem: MemLayout,
    /// Global name → base address.
    pub globals: BTreeMap<String, u64>,
    /// Alloca destination local → slot address.
    pub allocas: BTreeMap<String, u64>,
    /// Total frame size in bytes.
    pub frame_size: u64,
}

impl Layout {
    /// Computes the layout for `func` within `module`.
    ///
    /// Globals are placed consecutively (16-byte aligned gaps) from
    /// [`GLOBAL_BASE`]; each `alloca` in `func` gets a fixed slot from
    /// [`FRAME_BASE`].
    pub fn of(module: &Module, func: &Function) -> Layout {
        let mut layout = Layout::default();
        let mut addr = GLOBAL_BASE;
        for g in &module.globals {
            let size = g.ty.store_bytes().max(1);
            layout.globals.insert(g.name.clone(), addr);
            layout.mem.add_region(format!("@{}", g.name), addr, size);
            addr += size.div_ceil(16) * 16 + 16;
        }
        let mut frame_off = 0u64;
        for b in &func.blocks {
            for i in &b.instrs {
                if let Instr::Alloca { dst, ty } = i {
                    layout.allocas.insert(dst.clone(), FRAME_BASE + frame_off);
                    frame_off += ty.store_bytes().max(1).div_ceil(8) * 8;
                }
            }
        }
        layout.frame_size = frame_off;
        if frame_off > 0 {
            layout.mem.add_region("<frame>", FRAME_BASE, frame_off);
        }
        layout
    }

    /// Address of a global.
    pub fn global_addr(&self, name: &str) -> Option<u64> {
        self.globals.get(name).copied()
    }

    /// Address of an alloca slot.
    pub fn alloca_addr(&self, dst: &str) -> Option<u64> {
        self.allocas.get(dst).copied()
    }
}

/// Byte offset of a `getelementptr` into `base_ty` whose indices are all
/// integer constants, each sign-extended from its type, as LLVM does.
///
/// `None` when an index is not a constant, a struct index is out of range,
/// or an index steps into a scalar.
pub fn const_gep_offset(base_ty: &Type, indices: &[(Type, Operand)]) -> Option<i64> {
    let mut offset = 0i64;
    let mut cur = base_ty;
    for (k, (ity, idx)) in indices.iter().enumerate() {
        let Operand::Const(c) = idx else { return None };
        let w = ity.value_bits();
        let i = to_signed(w, mask(w, *c as u128)) as i64;
        let step = match cur {
            _ if k == 0 => cur.store_bytes() as i64 * i,
            Type::Array(_, elem) => {
                cur = elem;
                elem.store_bytes() as i64 * i
            }
            Type::Struct(fields) => {
                let fi = usize::try_from(i).ok().filter(|&fi| fi < fields.len())?;
                let field = cur.field_offset(fi) as i64;
                cur = &fields[fi];
                field
            }
            _ => return None,
        };
        offset = offset.wrapping_add(step);
    }
    Some(offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    #[test]
    fn globals_and_allocas_get_disjoint_regions() {
        let src = r#"
@a = external global i32
@b = external global [8 x i8]

define void @f() {
  %x = alloca i64
  %y = alloca [4 x i32]
  ret void
}
"#;
        let m = parse_module(src).expect("parses");
        let f = m.function("f").expect("exists");
        let layout = Layout::of(&m, f);
        let a = layout.global_addr("a").expect("a placed");
        let b = layout.global_addr("b").expect("b placed");
        assert!(b >= a + 4, "globals do not overlap");
        let x = layout.alloca_addr("%x").expect("x placed");
        let y = layout.alloca_addr("%y").expect("y placed");
        assert_eq!(x, FRAME_BASE);
        assert_eq!(y, FRAME_BASE + 8);
        assert_eq!(layout.frame_size, 24);
        assert_eq!(layout.mem.regions.len(), 3);
    }

    #[test]
    fn const_gep_offsets_through_nested_arrays_and_structs() {
        // [2 x {i8, [3 x i16], i32}]: elements of 11 bytes, the array field
        // at byte 1, the i32 at byte 7.
        let elem = Type::Struct(vec![Type::I8, Type::Array(3, Box::new(Type::I16)), Type::I32]);
        let ty = Type::Array(2, Box::new(elem));
        let gep = |idx: &[(Type, i128)]| {
            let idx: Vec<(Type, Operand)> =
                idx.iter().map(|(t, c)| (t.clone(), Operand::Const(*c))).collect();
            const_gep_offset(&ty, &idx)
        };
        let (i64_, i32_) = (Type::I64, Type::I32);
        assert_eq!(gep(&[(i64_.clone(), 0)]), Some(0));
        assert_eq!(gep(&[(i64_.clone(), 2)]), Some(44), "whole arrays");
        assert_eq!(gep(&[(i64_.clone(), 0), (i64_.clone(), 1)]), Some(11));
        assert_eq!(
            gep(&[(i64_.clone(), 0), (i64_.clone(), 1), (i32_.clone(), 1), (i64_.clone(), 2)]),
            Some(11 + 1 + 4)
        );
        assert_eq!(gep(&[(i64_.clone(), 0), (i64_.clone(), 1), (i32_.clone(), 2)]), Some(18));
        // Indices are sign-extended from their own width.
        assert_eq!(gep(&[(i32_.clone(), 0xffff_ffff)]), Some(-22));
        assert_eq!(gep(&[(i64_.clone(), 0), (i64_.clone(), -1), (i32_.clone(), 1)]), Some(-10));
        // A struct index out of range, an index into a scalar, and a
        // non-constant index have no constant offset.
        assert_eq!(gep(&[(i64_.clone(), 0), (i64_.clone(), 0), (i32_.clone(), 3)]), None);
        let scalar = [(i64_.clone(), 0), (i64_.clone(), 0), (i32_.clone(), 0), (i64_.clone(), 0)];
        assert_eq!(gep(&scalar), None);
        let local = [(i64_, Operand::Local("%i".into()))];
        assert_eq!(const_gep_offset(&ty, &local), None);
    }

    #[test]
    fn no_frame_region_without_allocas() {
        let m = parse_module("define void @f() {\n ret void\n}").expect("parses");
        let layout = Layout::of(&m, m.function("f").expect("exists"));
        assert_eq!(layout.frame_size, 0);
        assert!(layout.mem.regions.is_empty());
    }
}
