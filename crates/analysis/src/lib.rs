#![warn(missing_docs)]

//! # hpf-analysis — static analyzer over the normalized stencil IR
//!
//! A compile-time correctness layer for the SC'97 stencil pipeline. It has
//! three faces:
//!
//! * **Lints** ([`analyze`], [`lints`]): a registry of checks over any IR
//!   the pipeline can produce — most importantly **HS001**, the static twin
//!   of the runtime halo-poisoning property test: an offset operand
//!   reference (`U<+1,0>`) is an error unless the `OVERLAP_SHIFT`s executed
//!   since the array's last interior write materialize that ghost offset
//!   (the forward dataflow of [`coverage`]).
//! * **Pass post-conditions** ([`Check`], [`run_checks`]): each pass in
//!   `hpf-passes` declares the invariants its output must satisfy; the
//!   pipeline checks them between stages when
//!   `CompileOptions::check_invariants` is set.
//! * **Diagnostics** (re-exported from `hpf-ir`): everything is reported as
//!   [`Diagnostic`]s with stable codes and source spans, rendered as text or
//!   JSON (`hpfsc --lint --emit diag-json`).
//! * **Superstep coverage** ([`superstep`]): depth-coordinate geometry for
//!   communication-avoiding superstep schedules — does a candidate set of
//!   deep halo fills cover every ghost cell the `k` trapezoid sub-steps
//!   read before the next exchange?

pub mod coverage;
pub mod lints;
pub mod superstep;

pub use hpf_ir::diag::{render_json, render_text, sort};
pub use hpf_ir::{Diagnostic, Severity, Span};
pub use lints::{check_partition_groups, registry, CU001, DF001, DF002, FP001, HS001, HS002};

use hpf_ir::{Program, Severity as Sev, Stmt};

/// Run every lint over a program. `halo` is the machine's overlap width.
/// Returns the diagnostics sorted for presentation (errors first).
pub fn analyze(p: &Program, halo: i64) -> Vec<Diagnostic> {
    let mut out = lints::halo_safety(p, halo);
    out.extend(lints::residual_subsumed_shifts(p));
    out.extend(lints::temp_dataflow(p));
    out.extend(lints::fusion_legality(p));
    hpf_ir::diag::sort(&mut out);
    out
}

/// True when any diagnostic is an error.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Sev::Error)
}

/// A post-condition a pass can declare over its output IR.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Check {
    /// Structural validation ([`hpf_ir::validate::check`]).
    Validate,
    /// Normal-form alignment (§2.1): compute operands distributed like the
    /// LHS.
    NormalForm,
    /// All operand references aligned (zero offsets) and no overlap shifts —
    /// holds before the offset-array stage.
    AlignedRefs,
    /// Every offset read covered by preceding overlap shifts and within the
    /// halo (HS001/HS002).
    HaloSafe,
    /// No communication run contains a subsumed shift (CU001) — holds after
    /// unioning.
    NoSubsumedShifts,
    /// The grouping scalarization will use is fusion-legal (FP001).
    FusionLegal,
}

/// Run a set of post-condition checks, returning all violations sorted.
pub fn run_checks(p: &Program, halo: i64, checks: &[Check]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for c in checks {
        match c {
            Check::Validate => out.extend(hpf_ir::validate::check(p, halo)),
            Check::NormalForm => out.extend(hpf_ir::validate::normal_form_diagnostics(p)),
            Check::AlignedRefs => out.extend(aligned_refs(p)),
            Check::HaloSafe => out.extend(lints::halo_safety(p, halo)),
            Check::NoSubsumedShifts => out.extend(lints::residual_subsumed_shifts(p)),
            Check::FusionLegal => out.extend(lints::fusion_legality(p)),
        }
    }
    hpf_ir::diag::sort(&mut out);
    out
}

/// Pre-offset-stage invariant: no offset annotations, no overlap shifts.
fn aligned_refs(p: &Program) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    p.for_each_stmt(&mut |s| match s {
        Stmt::Compute { rhs, .. } => rhs.for_each_ref(&mut |r| {
            if !r.offsets.is_zero() {
                out.push(
                    Diagnostic::error(
                        "NF002",
                        format!(
                            "offset reference on {} before the offset-array stage",
                            p.symbols.array(r.array).name
                        ),
                    )
                    .at_opt(r.span),
                );
            }
        }),
        Stmt::OverlapShift { array, .. } => out.push(Diagnostic::error(
            "NF002",
            format!(
                "OVERLAP_SHIFT of {} before the offset-array stage",
                p.symbols.array(*array).name
            ),
        )),
        _ => {}
    });
    out
}
