//! Heap allocations of set-up, phase by phase. A counting global allocator
//! counts the allocations (and reallocations) the calling thread makes while
//! it compiles, lints and builds a sequential bytecode plan on a 2x2
//! machine of every frozen preset and a fixed list of generated programs.
//! Each phase must stay under its ceiling: about 1.1 times what it takes
//! today, one set of ceilings for debug builds (which also run the
//! pipeline's invariant checks and the checked plan build) and one for
//! release builds.
//!
//! The counts are exact and repeat run after run on a fixed toolchain (no
//! hash table in the workspace seeds itself at random), so no timing noise
//! can move this gate; a new toolchain or a deliberate change may move
//! them, and then the ceilings are re-measured with `--nocapture`, which
//! prints the counts. [`MEASURED_WITH`] names the toolchain they were
//! measured with, and a failure prints it, so a failure after a toolchain
//! update can be told apart from a change that allocates more.

use hpf_bench::workload::{generate, WorkloadSpec};
use hpf_stencil::frontend::compile_source;
use hpf_stencil::passes::compile;
use hpf_stencil::{presets, Backend, CompileOptions, Engine, Kernel, MachineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting every allocation and reallocation of the
/// calling thread: the test harness runs other tests on other threads.
struct Counting;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
}

fn count() -> u64 {
    COUNT.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The toolchain the ceilings below were measured with (`rustc --version`).
const MEASURED_WITH: &str = "rustc 1.95.0 (59807616e 2026-04-14)";

/// The programs set up: every preset at N = 64, then generated programs of
/// the zoo's shapes (3 to 16 statements, shift chains, `EOSHIFT`, `WHERE`,
/// time loops).
fn programs() -> Vec<String> {
    let mut out = vec![
        presets::five_point(64),
        presets::nine_point_cshift(64),
        presets::nine_point_array(64),
        presets::problem9(64),
        presets::jacobi(64, 2),
        presets::image_blur(64, 2),
        presets::wave2d(64, 2),
    ];
    for seed in 0..24u64 {
        let index = seed as usize;
        let spec = WorkloadSpec {
            n: 64,
            stmts: 3 + index % 14,
            max_terms: 4,
            max_chain: 3,
            eoshift: true,
            time_loop: (index % 4 == 3).then_some(2),
        };
        out.push(generate(&spec, seed));
    }
    out
}

/// Allocations per phase over one set-up of every program: frontend,
/// passes, lint, plan build.
fn set_up(programs: &[String]) -> [u64; 4] {
    let mut phases = [0u64; 4];
    for src in programs {
        let c0 = count();
        let checked = compile_source(src).unwrap();
        let c1 = count();
        let compiled = compile(&checked, CompileOptions::full());
        let kernel = Kernel { checked, compiled };
        let c2 = count();
        let diags = kernel.lint();
        let c3 = count();
        let plan = kernel
            .plan(MachineConfig::grid([2, 2]))
            .engine(Engine::Sequential)
            .backend(Backend::Bytecode)
            .build()
            .unwrap();
        let c4 = count();
        drop((plan, diags));
        for (phase, n) in phases.iter_mut().zip([c1 - c0, c2 - c1, c3 - c2, c4 - c3]) {
            *phase += n;
        }
    }
    phases
}

#[test]
fn set_up_allocates_under_its_ceilings() {
    let programs = programs();
    // A first set-up pays the process's one-time costs (the VM tier probe,
    // the dropped arrays the next machine on the thread takes back).
    set_up(&programs);
    let got = set_up(&programs);
    assert_eq!(got, set_up(&programs), "allocation counts repeat exactly");
    // 1.1 times the counts measured: debug [11994, 28436, 3328, 44552],
    // release [11994, 23152, 3328, 22258].
    let ceilings: [u64; 4] = if cfg!(debug_assertions) {
        [13193, 31279, 3660, 49007]
    } else {
        [13193, 25467, 3660, 24483]
    };
    println!("allocations per phase (frontend, passes, lint, build): {got:?}");
    for ((name, n), max) in ["frontend", "passes", "lint", "build"].iter().zip(got).zip(ceilings) {
        assert!(
            n <= max,
            "{name}: {n} allocations, over the ceiling of {max} (all: {got:?}); \
             ceilings measured with {MEASURED_WITH}"
        );
    }
}
