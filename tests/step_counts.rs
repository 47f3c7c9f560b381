//! Every counter a plan credits per step, recounted without the plan's own
//! counts. A walker over the step program counts, per PE, every point of
//! every nest box — the storage-clamped expanded box of a superstep
//! sub-step — by the executors' jammed/unit rule, and every element of
//! every schedule transfer; machine-wide, the ghost points the expanded
//! boxes add, the compiled kernels run and the schedules executed. After
//! one step, `Machine::stats` must equal it exactly, on both engines.

use hpf_bench::workload::{generate, WorkloadSpec};
use hpf_stencil::codegen::CompiledNest;
use hpf_stencil::exec::nest::expand_bounds;
use hpf_stencil::exec::plan::PlanItem;
use hpf_stencil::exec::{superstep_halo, ExecPlan};
use hpf_stencil::passes::loopir::{Instr, LoopNest, NodeProgram};
use hpf_stencil::runtime::{CompiledComm, MoveKind, PeStats};
use hpf_stencil::{Backend, CompileOptions, Engine, ExecConfig, Kernel, Machine, MachineConfig};

/// The frozen kernels, relative to the repository root.
const FROZEN: [&str; 11] = [
    "kernels/five_point.f90",
    "kernels/problem9.f90",
    "benchmark/kernels/five_point.f90",
    "benchmark/kernels/heat3d.f90",
    "benchmark/kernels/image_blur.f90",
    "benchmark/kernels/jacobi.f90",
    "benchmark/kernels/masked.f90",
    "benchmark/kernels/nine_point_array.f90",
    "benchmark/kernels/nine_point_cshift.f90",
    "benchmark/kernels/problem9.f90",
    "benchmark/kernels/wave2d.f90",
];

/// Add `times` executions of `body` at one point.
fn count_body(body: &[Instr], strided: bool, times: u64, s: &mut PeStats) {
    for instr in body {
        match instr {
            Instr::Load { .. } => {
                s.loads += times;
                s.strided_loads += if strided { times } else { 0 };
            }
            Instr::Store { .. } => s.stores += times,
            Instr::Bin { .. } | Instr::Neg { .. } => s.flops += times,
            _ => {}
        }
    }
    s.iters += times;
}

/// What one step credits: every PE's counters, and the machine-wide
/// redundant points, kernel executions and schedule executions.
#[derive(Default)]
struct Recount {
    per_pe: Vec<PeStats>,
    redundant: u64,
    kernel_execs: u64,
    schedule_execs: u64,
}

/// Walk every point of the local box `lo..=hi`, outermost loop first, and
/// return how many there were. A row of the outermost loop inside a full
/// group of `factor` rows belongs to one jammed execution, counted at the
/// group's first row; a row of the incomplete last group runs the unit body.
fn count_box(nest: &LoopNest, lo: &[i64], hi: &[i64], times: u64, s: &mut PeStats) -> u64 {
    let rank = lo.len();
    let d0 = nest.order[0];
    let factor = nest.unroll.as_ref().map_or(1, |u| u.factor as i64);
    let unit = nest.unroll.as_ref().map_or(&nest.body[..], |u| &u.unit_body);
    let strided = rank > 1 && nest.order[rank - 1] != rank - 1;
    let mut point = lo.to_vec();
    let mut points = 0;
    loop {
        points += 1;
        let row = point[d0] - lo[d0];
        let group_last = lo[d0] + (row / factor + 1) * factor - 1;
        if group_last > hi[d0] {
            count_body(unit, strided, times, s);
        } else if row % factor == 0 {
            count_body(&nest.body, strided, times, s);
        }
        let mut d = rank;
        loop {
            if d == 0 {
                return points;
            }
            d -= 1;
            point[d] += 1;
            if point[d] <= hi[d] {
                break;
            }
            point[d] = lo[d];
        }
    }
}

/// Count every element of every transfer of `sched`, `times` over: a
/// transfer between two PEs is a message on each side, one within a PE a
/// copy.
fn count_transfers(sched: &CompiledComm, times: u64, out: &mut Recount) {
    out.schedule_execs += times;
    let out = &mut out.per_pe;
    for t in &sched.transfers {
        let region = sched.section(t.src_pe, &t.src).expect("every box is a section");
        let elements: u64 = region.iter().map(|&(lo, hi)| (hi - lo + 1) as u64).product();
        let bytes = times * elements * 8;
        if t.src_pe == t.dst_pe {
            match sched.kind {
                MoveKind::FullShift => out[t.src_pe].intra_bytes += bytes,
                MoveKind::Overlap => out[t.src_pe].wrap_bytes += bytes,
            }
        } else {
            out[t.src_pe].msgs_sent += times;
            out[t.src_pe].bytes_sent += bytes;
            out[t.dst_pe].msgs_recv += times;
            out[t.dst_pe].bytes_recv += bytes;
        }
    }
}

/// Count every PE's sweep of `nest`, over its kernel's owned box or, given
/// `expand`, the expanded one, whose points beyond the owned box are
/// redundant; each PE runs its kernel once per sweep.
fn count_nest(
    machine: &Machine,
    nest: &LoopNest,
    kernels: &[CompiledNest],
    expand: Option<&[(i64, i64)]>,
    times: u64,
    out: &mut Recount,
) {
    out.kernel_execs += times * kernels.len() as u64;
    for ((state, kernel), counts) in machine.pes.iter().zip(kernels).zip(out.per_pe.iter_mut()) {
        let Some((lo, hi)) = kernel.local_bounds() else { continue };
        let owned: u64 = lo.iter().zip(hi).map(|(&l, &h)| (h - l + 1) as u64).product();
        let (lo, hi) = match expand {
            Some(e) => expand_bounds(state, nest, lo, hi, e),
            None => (lo.into(), hi.into()),
        };
        out.redundant += times * (count_box(nest, &lo, &hi, times, counts) - owned);
    }
}

/// Recount `times` executions of `items`.
fn walk(
    machine: &Machine,
    items: &[PlanItem],
    scheds: &[CompiledComm],
    times: u64,
    out: &mut Recount,
) {
    for item in items {
        match item {
            PlanItem::Comm(slot) => count_transfers(&scheds[*slot], times, out),
            PlanItem::Nest { nest, kernels } => {
                count_nest(machine, nest, kernels, None, times, out)
            }
            PlanItem::Rebind { .. } => {}
            PlanItem::TimeLoop { iters, body } => {
                walk(machine, body, scheds, times * *iters as u64, out)
            }
            PlanItem::Superstep { comms, body, expansions, .. } => {
                for &slot in comms {
                    count_transfers(&scheds[slot], times, out);
                }
                for sub in expansions {
                    let nests = body.iter().filter_map(|item| match item {
                        PlanItem::Nest { nest, kernels } => Some((nest, kernels)),
                        _ => None,
                    });
                    for ((nest, kernels), expand) in nests.zip(sub) {
                        count_nest(machine, nest, kernels, Some(expand), times, out);
                    }
                }
            }
        }
    }
}

/// Step a fresh `depth` plan of `node` on `grid` once and compare what it
/// credited with the walker's recount, returning the redundant points.
/// `None` when the depth does not apply: the kernel is ineligible, or its
/// deep halo does not fit.
fn check(
    node: &NodeProgram,
    grid: &[usize],
    depth: usize,
    engine: Engine,
    what: &str,
) -> Option<u64> {
    let mut cfg = MachineConfig::with_grid(grid.to_vec());
    if depth > 1 {
        let halo = superstep_halo(node, depth)?;
        cfg = cfg.halo(halo.max(1));
    }
    let mut machine = Machine::new(cfg);
    let ecfg = ExecConfig::new().engine(engine).backend(Backend::Bytecode).superstep(depth);
    let mut plan = match ExecPlan::build(&mut machine, node, &ecfg) {
        Ok(plan) => plan,
        Err(e) if depth > 1 => {
            eprintln!("{what}: no depth-{depth} plan: {e}");
            return None;
        }
        Err(e) => panic!("{what}: {e}"),
    };
    if depth > 1 {
        assert!(plan.supersteps_per_step() > 0, "{what}: {:?}", plan.superstep_diags());
    }
    machine.reset_stats();
    plan.step(&mut machine);
    let (items, scheds) = plan.program();
    let mut want =
        Recount { per_pe: vec![PeStats::default(); machine.pes.len()], ..Recount::default() };
    walk(&machine, items, scheds, 1, &mut want);
    let got = machine.stats();
    assert_eq!(got.per_pe, want.per_pe, "{what}");
    assert_eq!(plan.pe_counts_per_step(), &want.per_pe[..], "{what}");
    assert_eq!(got.redundant_cells, want.redundant, "{what}: redundant points");
    assert_eq!(got.kernel_execs, want.kernel_execs, "{what}: kernel executions");
    assert_eq!(got.schedule_reuses, want.schedule_execs, "{what}: schedule executions");
    Some(want.redundant)
}

fn node_of(src: &str) -> NodeProgram {
    Kernel::compile(src, CompileOptions::full()).unwrap().compiled.node
}

#[test]
fn frozen_kernels_credit_what_their_boxes_and_transfers_hold() {
    let (mut deep, mut redundant) = (0, 0);
    for path in FROZEN {
        let src = std::fs::read_to_string(format!("{}/{path}", env!("CARGO_MANIFEST_DIR")))
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        let node = node_of(&src);
        let rank = node.symbols.array_ids().map(|a| node.symbols.array(a).shape.rank()).max();
        for grid in [[1, 4], [2, 2], [4, 1]] {
            let mut grid = grid.to_vec();
            grid.resize(rank.unwrap_or(2).max(2), 1);
            for depth in [1, 2, 4] {
                for engine in [Engine::Sequential, Engine::Threaded] {
                    let what = format!("{path} {grid:?} depth {depth} {engine:?}");
                    let Some(points) = check(&node, &grid, depth, engine, &what) else {
                        continue;
                    };
                    deep += (depth > 1) as usize;
                    redundant += points;
                }
            }
        }
    }
    assert!(deep > 0, "some frozen kernel must tile in time");
    assert!(redundant > 0, "some superstep must recompute ghost points");
}

#[test]
fn generated_programs_credit_what_their_boxes_and_transfers_hold() {
    for seed in 0..64u64 {
        // Odd sizes leave non-dividing grids and remainder rows; every
        // fourth program iterates a time loop.
        let spec = WorkloadSpec {
            n: if seed % 2 == 0 { 12 } else { 13 },
            time_loop: (seed % 4 == 3).then_some(3),
            ..WorkloadSpec::default()
        };
        let node = node_of(&generate(&spec, seed));
        for depth in [1, 2] {
            for engine in [Engine::Sequential, Engine::Threaded] {
                check(
                    &node,
                    &[2, 2],
                    depth,
                    engine,
                    &format!("seed {seed} depth {depth} {engine:?}"),
                );
            }
        }
    }
}
