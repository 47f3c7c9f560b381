//! Backend selection: every engine can evaluate loop nests with the tree
//! interpreter or with bytecode kernels compiled by `hpf-codegen`.
//!
//! The backend is orthogonal to the [`Engine`](crate::Engine) choice: kernels
//! are compiled once per (nest, subgrid layout) at plan build, shared
//! read-only by the PEs of that layout and their worker threads, and reused
//! across plan steps. A nest the codegen cannot specialize (see
//! `hpf_codegen::compile_spmd`) falls back to the interpreter for that
//! (nest, layout) only. Both backends are bitwise identical, and neither
//! counts: the plan does, at build; the only observable difference is the
//! `kernels_compiled` / `kernel_execs` pair in `AggStats`.

use crate::nest::{exec_nest, exec_nest_expanded, expand_bounds};
use hpf_codegen::{exec_compiled, exec_compiled_over, CompiledNest};
use hpf_passes::loopir::LoopNest;
use hpf_runtime::PeState;

/// How loop-nest bodies are evaluated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Walk the register-machine body with the tree interpreter per point
    /// (the oracle semantics).
    #[default]
    Interp,
    /// Compile each nest to a bytecode kernel once and run it through the
    /// VM's bounds-check-free interior fast path.
    Bytecode,
}

impl Backend {
    /// Short name, as accepted by `hpfsc --engine` and printed by benches.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Interp => "interp",
            Backend::Bytecode => "bytecode",
        }
    }
}

/// Run one nest on one PE through the chosen kernel, falling back to the
/// interpreter when the nest did not compile for this PE.
#[inline]
pub(crate) fn run_nest(
    pe: &mut PeState,
    nest: &LoopNest,
    kernel: Option<&CompiledNest>,
    scalars: &[f64],
) {
    match kernel {
        Some(k) => exec_compiled(pe, k),
        None => exec_nest(pe, nest, scalars),
    }
}

/// Run one nest on one PE over its local bounds *expanded* into the ghost
/// region by `expand[d] = (below, above)` layers per side — a superstep
/// trapezoid sub-step sweep, which redundantly recomputes neighbor-owned
/// cells from deep-halo data. Both backends compute the identical
/// storage-clamped box (see `exec_nest_expanded`).
#[inline]
pub(crate) fn run_nest_expanded(
    pe: &mut PeState,
    nest: &LoopNest,
    kernel: Option<&CompiledNest>,
    scalars: &[f64],
    expand: &[(i64, i64)],
) {
    match kernel {
        Some(k) => {
            let Some((lo, hi)) = k.local_bounds() else { return };
            let (lo, hi) = expand_bounds(pe, nest, lo, hi, expand);
            exec_compiled_over(pe, k, &lo, &hi);
        }
        None => exec_nest_expanded(pe, nest, scalars, expand),
    }
}
