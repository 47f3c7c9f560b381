//! Backend selection: every engine can evaluate loop nests with the tree
//! interpreter or with bytecode kernels compiled by `hpf-codegen`.
//!
//! The backend is orthogonal to the [`Engine`](crate::Engine) choice: kernels
//! are compiled once per (nest, PE) at plan build, shared read-only by
//! worker threads, and reused across plan steps. A nest the codegen cannot
//! specialize (see `hpf_codegen::compile_nest`) falls back to the
//! interpreter for that (nest, PE) pair only. Both backends are bitwise
//! identical and produce the same per-PE counters; the only observable
//! difference is the `kernels_compiled` / `kernel_execs` pair in
//! `AggStats`.

use crate::nest::{exec_nest, exec_nest_expanded, exec_nest_range, expand_bounds};
use hpf_codegen::{exec_compiled, exec_compiled_over, exec_compiled_range, CompiledNest};
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

/// Run one nest on one PE restricted to a sub-rectangle of its local
/// iteration space (local subgrid coordinates, inclusive). Used by the
/// split-phase overlapped engine to execute interior regions and boundary
/// strips separately; the region is clipped against the nest's local
/// bounds by the callee.
#[inline]
pub(crate) fn run_nest_range(
    pe: &mut PeState,
    nest: &LoopNest,
    kernel: Option<&CompiledNest>,
    scalars: &[f64],
    region: &[(i64, i64)],
) {
    match kernel {
        Some(k) => exec_compiled_range(pe, k, region),
        None => exec_nest_range(pe, nest, scalars, region),
    }
}

/// Run one nest on one PE over its local bounds *expanded* into the ghost
/// region by `expand[d] = (below, above)` layers per side — a superstep
/// trapezoid sub-step sweep, which redundantly recomputes neighbor-owned
/// cells from deep-halo data. Both backends compute the identical
/// storage-clamped box (see `exec_nest_expanded`). Returns the number of
/// redundant (beyond-owned) points computed.
#[inline]
pub(crate) fn run_nest_expanded(
    pe: &mut PeState,
    nest: &LoopNest,
    kernel: Option<&CompiledNest>,
    scalars: &[f64],
    expand: &[(i64, i64)],
) -> u64 {
    match kernel {
        Some(k) => {
            let Some((lo, hi)) = k.local_bounds() else { return 0 };
            let (lo, hi) = (lo.to_vec(), hi.to_vec());
            let (lo_x, hi_x) = expand_bounds(pe, nest, &lo, &hi, expand);
            let owned: u64 = lo.iter().zip(&hi).map(|(&l, &h)| (h - l + 1) as u64).product();
            let total: u64 = lo_x.iter().zip(&hi_x).map(|(&l, &h)| (h - l + 1) as u64).product();
            exec_compiled_over(pe, k, &lo_x, &hi_x);
            total - owned
        }
        None => exec_nest_expanded(pe, nest, scalars, expand),
    }
}
