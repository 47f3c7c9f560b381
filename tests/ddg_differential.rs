//! Differential test of the statement dependence graph. `DepGraph::build`
//! finds each statement's predecessors through a per-resource index of the
//! earlier statements that write and read it; it must give exactly the
//! `edges`, `pred` and `succ` — in the same order — of the all-pairs
//! construction kept below, on every block context partitioning sees: the
//! frozen kernels under `kernels/` and `benchmark/kernels/`, and generated
//! zoo-shaped programs (3–16 statements, shift chains, `EOSHIFT`, `WHERE`,
//! time loops), each with and without offset arrays.

use hpf_bench::workload::{generate, WorkloadSpec};
use hpf_stencil::frontend::{compile_source, Checked};
use hpf_stencil::ir::ddg::DepEdge;
use hpf_stencil::ir::stmt::Resource;
use hpf_stencil::ir::{ArrayId, DepGraph, DepKind, ShiftKind, Stmt};
use hpf_stencil::passes::{normalize, offset, partition, rotate, TempPolicy};
use std::collections::{HashMap, HashSet};

/// What `DepGraph::build` gives: every edge, then each statement's
/// predecessors and successors.
type Graph = (Vec<DepEdge>, Vec<Vec<usize>>, Vec<Vec<usize>>);

/// The all-pairs construction: every statement pair, with its read and
/// write sets compared directly, and the same idempotent-ghost exemptions.
fn all_pairs(block: &[Stmt]) -> Graph {
    let n = block.len();
    let reads: Vec<Vec<Resource>> = block.iter().map(|s| s.reads()).collect();
    let writes: Vec<Vec<Resource>> = block.iter().map(|s| s.writes()).collect();
    let mut kind_of: HashMap<ArrayId, Option<ShiftKind>> = HashMap::new();
    for s in block {
        if let Stmt::OverlapShift { array, kind, .. } = s {
            match kind_of.entry(*array).or_insert(Some(*kind)) {
                Some(k) if *k == *kind => {}
                slot => *slot = None,
            }
        }
    }
    let idempotent_ghost_write = |stmt: &Stmt, r: &Resource| match (stmt, r) {
        (Stmt::OverlapShift { array, .. }, Resource::Ghost(a, ..)) => {
            a == array && matches!(kind_of.get(array), Some(Some(_)))
        }
        _ => false,
    };
    let mut edges = Vec::new();
    let mut succ = vec![Vec::new(); n];
    let mut pred = vec![Vec::new(); n];
    for j in 0..n {
        let rj: HashSet<&Resource> = reads[j].iter().collect();
        let wj: HashSet<&Resource> = writes[j].iter().collect();
        for i in 0..j {
            let mut kinds = Vec::new();
            if writes[i].iter().any(|r| rj.contains(r)) {
                kinds.push(DepKind::True);
            }
            if reads[i].iter().any(|r| wj.contains(r) && !idempotent_ghost_write(&block[j], r)) {
                kinds.push(DepKind::Anti);
            }
            if writes[i].iter().any(|r| {
                wj.contains(r)
                    && !(idempotent_ghost_write(&block[i], r)
                        && idempotent_ghost_write(&block[j], r))
            }) {
                kinds.push(DepKind::Output);
            }
            if !kinds.is_empty() {
                succ[i].push(j);
                pred[j].push(i);
            }
            edges.extend(kinds.into_iter().map(|kind| DepEdge { src: i, dst: j, kind }));
        }
    }
    (edges, pred, succ)
}

fn indexed(block: &[Stmt]) -> Graph {
    let g = DepGraph::build(block);
    let pred = (0..g.n).map(|j| g.pred(j).to_vec()).collect();
    let succ = (0..g.n).map(|i| g.succ(i).to_vec()).collect();
    (g.edges, pred, succ)
}

/// Compare the two constructions on every block of `checked`, as
/// normalization leaves it and after each pass up to context partitioning,
/// with offset arrays on and off. Returns the number of edges compared.
fn check_program(name: &str, checked: &Checked) -> usize {
    let mut compared = 0;
    for (policy, offsets) in [(TempPolicy::Reuse, true), (TempPolicy::FreshPerShift, false)] {
        let (mut program, _) = normalize(checked, policy);
        let mut stages = vec![program.clone()];
        if offsets {
            offset::run(&mut program, 1);
            rotate::run(&mut program);
            stages.push(program.clone());
        }
        partition::run(&mut program);
        stages.push(program);
        for mut stage in stages {
            stage.for_each_block_mut(&mut |block, _| {
                let want = all_pairs(block);
                assert_eq!(indexed(block), want, "{name} (offset arrays {offsets})");
                compared += want.0.len();
            });
        }
    }
    compared
}

#[test]
fn frozen_kernels_have_the_all_pairs_graph() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut kernels = 0;
    let mut edges = 0;
    for dir in ["kernels", "benchmark/kernels"] {
        let mut paths: Vec<_> = std::fs::read_dir(format!("{root}/{dir}"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "f90"))
            .collect();
        paths.sort();
        for path in paths {
            let src = std::fs::read_to_string(&path).unwrap();
            let checked = compile_source(&src).unwrap();
            edges += check_program(&path.display().to_string(), &checked);
            kernels += 1;
        }
    }
    assert_eq!(kernels, 11, "two kernels under kernels/, nine under benchmark/kernels/");
    assert!(edges > 0);
}

#[test]
fn generated_programs_have_the_all_pairs_graph() {
    let mut edges = 0;
    for seed in 0..240u64 {
        let index = seed as usize;
        let spec = WorkloadSpec {
            n: 12,
            stmts: 3 + index % 14,
            max_terms: 4,
            max_chain: 3,
            eoshift: true,
            time_loop: (index % 4 == 3).then_some(2),
        };
        let src = generate(&spec, seed);
        let checked = compile_source(&src).unwrap();
        edges += check_program(&format!("seed {seed}"), &checked);
    }
    assert!(edges > 10_000, "{edges} edges compared");
}
