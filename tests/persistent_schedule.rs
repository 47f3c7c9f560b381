//! Property tests for the persistent-schedule layer and the Plan API.
//!
//! Three invariants:
//!
//! 1. **Overlap coverage** — the compiled schedules fill every ghost element
//!    the generated loop nests read. Verified by poisoning the overlap areas
//!    of every subgrid with `f64::MAX` before the step: any ghost read the
//!    schedules failed to fill contaminates the output, which must still
//!    match the reference interpreter exactly.
//! 2. **Iterate ≡ chained runs** — `Plan::iterate(n)` is bitwise-equal to
//!    `n` independent one-sweep `Planner::run()` calls whose state is
//!    carried forward by hand, on both engines.
//! 3. **Boxes walk regions point for point** — everything a schedule does
//!    through a `StridedBox` (pack, unpack, fill, copy between and within
//!    subgrids) equals the same region visited one point at a time, in
//!    row-major order, through `Subgrid::get`/`set`. Decoded, a box gives
//!    its region back.

use hpf_stencil::ir::{ArrayDecl, ArrayId, Distribution, Rsd, Section, Shape, ShiftKind};
use hpf_stencil::passes::CompileOptions;
use hpf_stencil::runtime::schedule::{cshift_plan, overlap_shift_plan, CommAction, Transfer};
use hpf_stencil::runtime::subgrid::region_len;
use hpf_stencil::runtime::{MoveKind, Subgrid};
use hpf_stencil::{Engine, Kernel, Machine, MachineConfig};
use proptest::prelude::*;

/// One random stencil term: `coeff * CHAIN(src)`, chain of up to two unit
/// shifts, circular or end-off.
#[derive(Clone, Debug)]
struct Term {
    coeff: f64,
    src: usize, // index into NAMES
    shifts: Vec<(i64, usize)>,
    endoff: bool,
}

/// One random statement: a full-space assignment of a sum of terms,
/// optionally accumulating.
#[derive(Clone, Debug)]
struct RandStmt {
    dst: usize, // 1 = T, 2 = V
    accumulate: bool,
    terms: Vec<Term>,
}

#[derive(Clone, Debug)]
struct RandKernel {
    n: usize,
    stmts: Vec<RandStmt>,
    in_loop: Option<usize>,
}

const NAMES: [&str; 3] = ["U", "T", "V"];

impl RandKernel {
    fn source(&self) -> String {
        let mut s = format!("PROGRAM rand\nPARAM N = {}\nREAL U(N,N), T(N,N), V(N,N)\n", self.n);
        let mut body = String::new();
        for st in &self.stmts {
            let dst = NAMES[st.dst];
            let mut rhs = if st.accumulate { dst.to_string() } else { String::new() };
            for t in &st.terms {
                let mut operand = NAMES[t.src].to_string();
                for (amt, dim) in &t.shifts {
                    let intr = if t.endoff { "EOSHIFT" } else { "CSHIFT" };
                    operand = format!("{intr}({operand},{amt},{})", dim + 1);
                }
                let term = format!("{} * {operand}", t.coeff);
                rhs = if rhs.is_empty() { term } else { format!("{rhs} + {term}") };
            }
            if rhs.is_empty() {
                rhs = "0".to_string();
            }
            body.push_str(&format!("{dst} = {rhs}\n"));
        }
        if let Some(iters) = self.in_loop {
            s.push_str(&format!("DO {iters} TIMES\n{body}ENDDO\n"));
        } else {
            s.push_str(&body);
        }
        s.push_str("END\n");
        s
    }
}

fn term_strategy() -> impl Strategy<Value = Term> {
    (
        -4i32..=4,
        0usize..2,
        prop::collection::vec((prop_oneof![Just(-1i64), Just(1)], 0usize..2), 0..=2),
        any::<bool>(),
    )
        .prop_map(|(c, src, shifts, endoff)| Term {
            coeff: c as f64 * 0.25,
            src: if src == 0 { 0 } else { 2 },
            shifts,
            endoff,
        })
}

fn stmt_strategy() -> impl Strategy<Value = RandStmt> {
    (
        prop_oneof![Just(1usize), Just(2)],
        any::<bool>(),
        prop::collection::vec(term_strategy(), 1..=4),
    )
        .prop_map(|(dst, accumulate, terms)| RandStmt { dst, accumulate, terms })
}

fn kernel_strategy() -> impl Strategy<Value = RandKernel> {
    (
        prop_oneof![Just(6usize), Just(8), Just(12)],
        prop::collection::vec(stmt_strategy(), 1..=3),
        prop_oneof![Just(None), Just(Some(2usize)), Just(Some(3))],
    )
        .prop_map(|(n, stmts, in_loop)| RandKernel { n, stmts, in_loop })
}

fn grid_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        Just(vec![1, 1]),
        Just(vec![2, 2]),
        Just(vec![1, 2]),
        Just(vec![2, 1]),
        Just(vec![3, 2]),
    ]
}

fn init_u(p: &[i64]) -> f64 {
    ((p[0] * 7 + p[1] * 3) as f64 * 0.1).sin()
}

fn init_v(p: &[i64]) -> f64 {
    ((p[0] - p[1]) as f64 * 0.05).cos()
}

/// Dense row-major field of an init function over an n×n global array.
fn dense(n: usize, f: impl Fn(&[i64]) -> f64) -> Vec<f64> {
    let mut v = vec![0.0; n * n];
    for (i, slot) in v.iter_mut().enumerate() {
        *slot = f(&[(i / n + 1) as i64, (i % n + 1) as i64]);
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Invariant 1: the schedules' filled overlap regions are a superset of
    /// the ghost elements the loop nests read — poisoned halos never leak.
    #[test]
    fn poisoned_halos_never_leak(
        k in kernel_strategy(),
        grid in grid_strategy(),
        threaded in any::<bool>(),
    ) {
        let src = k.source();
        let kernel = Kernel::compile(&src, CompileOptions::full())
            .unwrap_or_else(|e| panic!("compile failed for:\n{src}\n{e}"));
        let engine = if threaded { Engine::Threaded } else { Engine::Sequential };
        let mut plan = kernel
            .plan(MachineConfig::grid(grid.clone()))
            .init("U", init_u)
            .init("V", init_v)
            .engine(engine)
            .build()
            .unwrap_or_else(|e| panic!("build failed for:\n{src}\n{e}"));
        plan.machine.poison_halos(f64::MAX);
        plan.step();
        let oracle = kernel.oracle().init("U", init_u).init("V", init_v).run();
        for name in ["U", "T", "V"] {
            let id = kernel.array_id(name).unwrap();
            if !plan.machine.is_allocated(id) {
                continue; // array never referenced by this random kernel
            }
            let got = plan.gather(name).unwrap();
            prop_assert_eq!(
                &got,
                &oracle.arrays[&id].data,
                "poison leaked into {} (engine {:?}, grid {:?}) for:\n{}",
                name, engine, &grid, &src
            );
        }
    }

    /// Invariant 2: `Plan::iterate(n)` equals `n` chained one-sweep
    /// `Planner::run()` calls bit for bit, on both engines.
    #[test]
    fn iterate_equals_chained_runs(
        k in kernel_strategy(),
        grid in grid_strategy(),
        steps in 1usize..=3,
        threaded in any::<bool>(),
    ) {
        let src = k.source();
        let kernel = Kernel::compile(&src, CompileOptions::full())
            .unwrap_or_else(|e| panic!("compile failed for:\n{src}\n{e}"));
        let engine = if threaded { Engine::Threaded } else { Engine::Sequential };
        let mut plan = kernel
            .plan(MachineConfig::grid(grid.clone()))
            .init("U", init_u)
            .init("V", init_v)
            .engine(engine)
            .build()
            .unwrap_or_else(|e| panic!("build failed for:\n{src}\n{e}"));
        plan.iterate(steps);

        // Chained one-sweep runs carrying every allocated array forward by
        // hand. T starts zero, exactly as a fresh machine allocates it.
        let n = k.n;
        let live: Vec<&str> = NAMES
            .iter()
            .copied()
            .filter(|name| plan.machine.is_allocated(kernel.array_id(name).unwrap()))
            .collect();
        let mut state: Vec<Vec<f64>> = live
            .iter()
            .map(|&name| match name {
                "U" => dense(n, init_u),
                "V" => dense(n, init_v),
                _ => dense(n, |_| 0.0),
            })
            .collect();
        for _ in 0..steps {
            let mut r = kernel.plan(MachineConfig::grid(grid.clone()));
            for (name, field) in live.iter().zip(&state) {
                let f = field.clone();
                r = r.init(name, move |p| f[(p[0] - 1) as usize * n + (p[1] - 1) as usize]);
            }
            let run = r.engine(engine).run()
                .unwrap_or_else(|e| panic!("run failed for:\n{src}\n{e}"));
            for (name, field) in live.iter().zip(state.iter_mut()) {
                *field = run.gather(name).unwrap();
            }
        }
        for (name, field) in live.iter().zip(&state) {
            prop_assert_eq!(
                &plan.gather(name).unwrap(),
                field,
                "{} diverged after {} steps (engine {:?}, grid {:?}) for:\n{}",
                name, steps, engine, &grid, &src
            );
        }
    }

    /// Schedule accounting: compiled once at build, reused uniformly on
    /// every step, with no buffer growth.
    #[test]
    fn schedules_built_once_and_reused(
        k in kernel_strategy(),
        grid in grid_strategy(),
        steps in 1usize..=4,
    ) {
        let src = k.source();
        let kernel = Kernel::compile(&src, CompileOptions::full())
            .unwrap_or_else(|e| panic!("compile failed for:\n{src}\n{e}"));
        let mut plan = kernel
            .plan(MachineConfig::grid(grid.clone()))
            .init("U", init_u)
            .init("V", init_v)
            .build()
            .unwrap();
        let pooled = plan.pooled_bytes();
        plan.iterate(steps);
        let st = plan.stats();
        prop_assert_eq!(st.schedules_built as usize, plan.comm_count());
        prop_assert_eq!(plan.pooled_bytes(), pooled, "no per-step buffer growth");
        if st.schedules_built > 0 {
            // Every step executes the same schedule sequence: the reuse
            // count is steps x (executions per step), and every compiled
            // schedule runs at least once per step.
            prop_assert_eq!(st.schedule_reuses % steps as u64, 0);
            prop_assert!(st.schedule_reuses / steps as u64 >= st.schedules_built);
        } else {
            prop_assert_eq!(st.schedule_reuses, 0);
        }
    }
}

/// The points of a local region in row-major order (none when any range is
/// empty or inverted) — the order a box must walk.
fn points(ranges: &[(i64, i64)]) -> Vec<Vec<i64>> {
    if region_len(ranges) == 0 {
        return Vec::new();
    }
    Section::new(ranges.to_vec()).points().collect()
}

/// A subgrid of the given extents whose every cell, ghosts included, holds
/// a value of its own (`tag` tells two subgrids apart).
fn numbered(ext: &[usize], halo: usize, tag: f64) -> Subgrid {
    let owned = Section::new(ext.iter().map(|&e| (1, e as i64)).collect::<Vec<_>>());
    let mut sub = Subgrid::new(owned, halo);
    for (i, c) in sub.raw_mut().iter_mut().enumerate() {
        *c = tag + i as f64;
    }
    sub
}

/// `plan` applied one point at a time: what a compiled schedule must leave
/// in `dst` (transfers in plan order, each read whole before it is written,
/// then nothing else), and what it must count. A transfer between two PEs
/// is one message of its bytes on each side; one within a PE copies its
/// bytes, intraprocessor for a full shift and wrap for an overlap shift; a
/// fill counts nothing.
fn apply_pointwise(
    m: &mut Machine,
    dst: ArrayId,
    src: ArrayId,
    plan: &[CommAction],
    kind: MoveKind,
) {
    for action in plan {
        match action {
            CommAction::Transfer(t) => {
                let from = m.pes[t.src_pe].subgrid(src);
                let moved: Vec<f64> = points(&t.src_local).iter().map(|p| from.get(p)).collect();
                let bytes = 8 * moved.len() as u64;
                let to = m.pes[t.dst_pe].subgrid_mut(dst);
                for (q, v) in points(&t.dst_local).iter().zip(moved) {
                    to.set(q, v);
                }
                let (sender, receiver) = (t.src_pe, t.dst_pe);
                if sender == receiver {
                    let local = &mut m.pes[sender].stats;
                    match kind {
                        MoveKind::FullShift => local.intra_bytes += bytes,
                        MoveKind::Overlap => local.wrap_bytes += bytes,
                    }
                } else {
                    m.pes[sender].stats.msgs_sent += 1;
                    m.pes[sender].stats.bytes_sent += bytes;
                    m.pes[receiver].stats.msgs_recv += 1;
                    m.pes[receiver].stats.bytes_recv += bytes;
                }
            }
            CommAction::Fill { pe, local, value } => {
                let to = m.pes[*pe].subgrid_mut(dst);
                points(local).iter().for_each(|q| to.set(q, *value));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Invariant 3 on one subgrid: any region of a rank 1-3, halo 1-4
    /// subgrid — blocks, column faces of run length 1, single cells,
    /// extent-1 axes, empty and inverted ranges.
    #[test]
    fn boxes_walk_regions_point_for_point(
        halo in 1usize..=4,
        ext in prop::collection::vec(1usize..=6, 1..=3),
        noise in prop::collection::vec(0i64..1000, 12),
    ) {
        let rank = ext.len();
        let sub = numbered(&ext, halo, 0.5);
        // Per dimension: lo in the lower half of storage, hi anywhere up to
        // the last ghost cell — or, one time in eight, below lo.
        let ranges: Vec<(i64, i64)> = (0..rank)
            .map(|d| {
                let (first, last) = (1 - halo as i64, (ext[d] + halo) as i64);
                let (lo, r) = (first + noise[2 * d] % ((last - first) / 2 + 2), noise[2 * d + 1]);
                (lo, if r % 8 == 0 { lo - 1 - r % 3 } else { lo + r % (last - lo + 1) })
            })
            .collect();
        let pts = points(&ranges);
        let b = sub.region_box(&ranges);
        prop_assert_eq!(b.elements(), pts.len());
        // Decoding against the layout gives the region back; no region has
        // no section.
        let decoded = b.section(&ext, halo);
        prop_assert_eq!(&decoded, &(!pts.is_empty()).then(|| ranges.clone().into()), "{:?}", &b);

        let want: Vec<f64> = pts.iter().map(|p| sub.get(p)).collect();
        let mut packed = vec![-7.0];
        b.pack(sub.raw(), &mut packed);
        prop_assert_eq!(&packed[1..], &want[..], "pack appends in row-major order: {:?}", &ranges);

        let fresh: Vec<f64> = (0..pts.len()).map(|i| -1.0 - i as f64).collect();
        let (mut boxed, mut pointwise) = (sub.clone(), sub.clone());
        b.unpack(boxed.raw_mut(), &fresh);
        pts.iter().zip(&fresh).for_each(|(p, &v)| pointwise.set(p, v));
        prop_assert_eq!(&boxed, &pointwise, "unpack: {:?}", &ranges);

        b.fill(boxed.raw_mut(), 42.0);
        pts.iter().for_each(|p| pointwise.set(p, 42.0));
        prop_assert_eq!(&boxed, &pointwise, "fill: {:?}", &ranges);

        // The same region shifted inside a subgrid of other extents (other
        // strides): congruent boxes, copied in lockstep.
        let grow: Vec<usize> = (0..rank).map(|d| ext[d] + (noise[6 + d] % 3) as usize).collect();
        let shift: Vec<i64> = (0..rank).map(|d| noise[9 + d] % (grow[d] - ext[d] + 1) as i64).collect();
        let there: Vec<(i64, i64)> = ranges.iter().zip(&shift).map(|(&(l, h), s)| (l + s, h + s)).collect();
        let mut other = numbered(&grow, halo, 1e6);
        let mut pointwise = other.clone();
        b.copy_to(sub.raw(), &other.region_box(&there), other.raw_mut());
        points(&there).iter().zip(&want).for_each(|(q, &v)| pointwise.set(q, v));
        prop_assert_eq!(&other, &pointwise, "copy_to: {:?} -> {:?}", &ranges, &there);

        // Within one subgrid, onto a disjoint copy of the region one
        // region-length along the first dimension that has room for it.
        let room = (0..rank).find(|&d| {
            let len = ranges[d].1 - ranges[d].0 + 1;
            len > 0 && ranges[d].1 + len <= (ext[d] + halo) as i64
        });
        if let (Some(d), false) = (room, pts.is_empty()) {
            let mut beside = ranges.clone();
            let len = ranges[d].1 - ranges[d].0 + 1;
            beside[d] = (ranges[d].0 + len, ranges[d].1 + len);
            let (mut within, mut pointwise) = (sub.clone(), sub.clone());
            b.copy_within(&sub.region_box(&beside), within.raw_mut());
            points(&beside).iter().zip(&want).for_each(|(q, &v)| pointwise.set(q, v));
            prop_assert_eq!(&within, &pointwise, "copy_within: {:?} -> {:?}", &ranges, &beside);
        }
    }

    /// Invariant 3 on whole schedules: overlap shifts (RSD-extended corner
    /// sections, deep halos, end-off fills, wraps on single-PE and
    /// extent-1 axes) and full shifts, on dividing and non-dividing grids
    /// of rank 1-3, compiled and executed against the same plan applied a
    /// point at a time — storage, ghosts included, and every counter.
    #[test]
    fn compiled_schedules_match_pointwise_plans(
        dims in prop::collection::vec((1usize..=9, 1usize..=3), 1..=3),
        halo in 1usize..=4,
        noise in prop::collection::vec(0i64..1000, 12),
        endoff in any::<bool>(),
        full in any::<bool>(),
    ) {
        let rank = dims.len();
        let shape = Shape::new(dims.iter().map(|d| d.0).collect::<Vec<_>>());
        let grid: Vec<usize> = dims.iter().map(|d| d.1).collect();
        let (u, t) = (ArrayId(0), ArrayId(1));
        let mut m = Machine::new(MachineConfig::grid(grid).halo(halo));
        let decl = |name| ArrayDecl::user(name, shape, Distribution::block(rank));
        if m.alloc(u, &decl("U")).and_then(|()| m.alloc(t, &decl("T"))).is_err() {
            continue; // halo deeper than the smallest block
        }
        m.fill(u, |p| p.iter().fold(0.5, |acc, &i| acc * 10.0 + i as f64));
        m.fill(t, |p| -p.iter().fold(0.25, |acc, &i| acc * 10.0 + i as f64));
        let geom = m.meta(u).geom;
        let dim = noise[0] as usize % rank;
        let kind = if endoff { ShiftKind::EndOff(-3.5) } else { ShiftKind::Circular };
        let (dst, move_kind, plan) = if full {
            let shift = noise[1] % 17 - 8;
            (t, MoveKind::FullShift, cshift_plan(&geom, shift, dim, kind))
        } else {
            // Any shift the halo allows, corners riding along in every
            // other dimension by any amount the halo allows.
            let mag = 1 + noise[1] % halo as i64;
            let mut rsd = Rsd::none(rank);
            for e in (0..rank).filter(|&e| e != dim) {
                rsd.extend(e, -(noise[2 + e] % (halo as i64 + 1)));
                rsd.extend(e, noise[5 + e] % (halo as i64 + 1));
            }
            let shift = if noise[8] % 2 == 0 { mag } else { -mag };
            match overlap_shift_plan(&geom, shift, dim, Some(&rsd), kind, halo) {
                Ok(plan) => (u, MoveKind::Overlap, plan),
                Err(_) => continue, // wider than the smallest block
            }
        };
        let mut pointwise = m.clone();
        apply_pointwise(&mut pointwise, dst, u, &plan, move_kind);
        let sched = m.compile_comm(dst, u, plan.clone(), move_kind);
        m.apply_compiled(&sched);
        for pe in 0..m.num_pes() {
            let want = pointwise.pes[pe].subgrid(dst).raw();
            prop_assert_eq!(m.pes[pe].subgrid(dst).raw(), want, "PE {} of {:?}", pe, &plan);
        }
        prop_assert_eq!(m.stats().per_pe, pointwise.stats().per_pe);
        // Same-PE transfers of a real plan never overwrite their source.
        prop_assert!(sched.transfers.iter().all(|t| t.direct == (t.src_pe == t.dst_pe)));
    }
}

/// A hand-built transfer no planner emits: `U(2:4, :) = U(1:3, :)` inside
/// one PE. Copied run by run it would read rows it has already written, so
/// it must take the staged path — and still equal the plan applied with a
/// buffer in between. The same move onto disjoint rows goes direct.
#[test]
fn self_overwriting_transfer_takes_the_staged_fallback() {
    let u = ArrayId(0);
    let row_move = |src: (i64, i64), dst: (i64, i64)| {
        vec![CommAction::Transfer(Transfer {
            src_pe: 0,
            dst_pe: 0,
            src_local: [src, (0, 5)].into(),
            dst_local: [dst, (0, 5)].into(),
        })]
    };
    for (src, dst, direct) in [((1, 3), (2, 4), false), ((3, 4), (0, 1), true)] {
        let mut m = Machine::new(MachineConfig::sp2_2x2());
        m.alloc(u, &ArrayDecl::user("U", Shape::new([8, 8]), Distribution::block(2))).unwrap();
        m.fill(u, |p| (p[0] * 10 + p[1]) as f64);
        let mut pointwise = m.clone();
        apply_pointwise(&mut pointwise, u, u, &row_move(src, dst), MoveKind::Overlap);
        let sched = m.compile_comm(u, u, row_move(src, dst), MoveKind::Overlap);
        assert_eq!(sched.transfers[0].direct, direct, "{src:?} -> {dst:?}");
        assert_eq!(sched.pooled_bytes(), if direct { 0 } else { 3 * 6 * 8 });
        m.apply_compiled(&sched);
        assert_eq!(m.pes[0].subgrid(u).raw(), pointwise.pes[0].subgrid(u).raw());
        assert_eq!(m.stats().per_pe, pointwise.stats().per_pe);
        assert_eq!(m.stats().per_pe[0].wrap_bytes, pointwise_bytes(src));
    }
}

/// Bytes a `(lo, hi)` x `(0, 5)` row move copies.
fn pointwise_bytes(rows: (i64, i64)) -> u64 {
    ((rows.1 - rows.0 + 1) * 6 * 8) as u64
}
