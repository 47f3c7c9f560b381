//! Lifecycle of a threaded plan's worker pool, observed from outside: how
//! many OS threads the process has, how many message buffers its free
//! lists hold, and that keeping both across steps changes nothing a step
//! computes or counts.
//!
//! Everything lives in one `#[test]`: the thread count is a property of
//! the process, and the test harness starts and retires a thread per test.

use hpf_stencil::{
    presets, Backend, CompileOptions, Engine, ExecConfig, Kernel, MachineConfig, Plan,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// OS threads of this process (`None` where `/proc` does not say).
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")?.trim().parse().ok())
}

fn init(p: &[i64]) -> f64 {
    ((p[0] * 31 + p[1] * 7) as f64).sin()
}

fn build<'k>(kernel: &'k Kernel, grid: [usize; 2], cfg: ExecConfig) -> Plan<'k> {
    kernel.plan(MachineConfig::grid(grid)).init("U", init).config(cfg).build().unwrap()
}

#[test]
fn worker_threads_follow_the_plan_lifecycle() {
    let kernel = Kernel::compile(&presets::problem9(16), CompileOptions::full()).unwrap();
    let threaded = ExecConfig::new().engine(Engine::Threaded).backend(Backend::Bytecode);
    let baseline = os_threads();
    // Where `/proc` is missing the counts go unchecked; the rest still runs.
    // The kernel can still count a joined thread for a moment after
    // `pthread_join` returns, so the count is polled for up to 2 s before
    // it must be exact.
    let grew_by = |n: usize| {
        let Some(before) = baseline else { return };
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut now = os_threads();
        while now != Some(before + n) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            now = os_threads();
        }
        if let Some(now) = now {
            assert_eq!(now, before + n, "OS threads");
        }
    };

    // Built, inspected, dropped: no thread. First step: PEs - 1 of them,
    // and no more however long it runs. Dropped: gone again.
    {
        let mut plan = build(&kernel, [2, 2], threaded);
        assert!(plan.comm_count() > 0 && plan.verify_static().is_empty());
        grew_by(0);
        plan.step();
        grew_by(3);
        plan.iterate(50);
        grew_by(3);
    }
    grew_by(0);
    drop(build(&kernel, [2, 2], threaded));
    grew_by(0);
    // A sequential build writes an input of a million cells and more on
    // every core, and leaves no thread behind. An initializer that panics
    // fails the build with its own message, wherever its point is written
    // (PE 1 on the calling thread, PE 3 on another), once every thread has
    // stopped; the next build on this thread is the first one again.
    {
        let large = Kernel::compile(&presets::problem9(400), CompileOptions::full()).unwrap();
        let want = build(&large, [2, 2], ExecConfig::new()).gather("U").unwrap();
        grew_by(0);
        for at in [[7, 300], [300, 300]] {
            let planner = large.plan(MachineConfig::grid([2, 2])).init("U", move |p| {
                assert!(p != at, "no value at {at:?}");
                init(p)
            });
            let failed = catch_unwind(AssertUnwindSafe(|| planner.build().map(|_| ())));
            let message = *failed.unwrap_err().downcast::<String>().expect("a message");
            assert_eq!(message, format!("no value at {at:?}"));
            grew_by(0);
            assert_eq!(build(&large, [2, 2], ExecConfig::new()).gather("U").unwrap(), want);
        }
    }
    // A one-sweep run hands back the stepped plan, workers and all.
    {
        let plan = kernel.plan(MachineConfig::grid([2, 2])).init("U", init).config(threaded);
        let ran = plan.run().unwrap();
        assert_eq!(ran.steps(), 1);
        grew_by(3);
    }
    grew_by(0);

    // 1 000 steps on the threaded engine x every backend x superstep depth,
    // on a grid with a CPU per PE (waits spin first) and one without
    // (waits park): arrays and every counter as on the sequential engine.
    for grid in [[2, 1], [2, 2]] {
        for backend in [Backend::Interp, Backend::Bytecode] {
            for depth in [1usize, 4] {
                let cfg = ExecConfig::new().backend(backend).superstep(depth);
                let mut seq = build(&kernel, grid, cfg);
                assert_eq!(seq.logical_steps_per_step(), depth, "Problem 9 tiles in time");
                seq.iterate(1000);
                let want = (seq.gather("U").unwrap(), seq.gather("T").unwrap());
                let what = format!("{grid:?} {backend:?} depth {depth}");
                let mut par = build(&kernel, grid, cfg.engine(Engine::Threaded));
                par.iterate(1000);
                grew_by(grid[0] * grid[1] - 1);
                assert_eq!((par.gather("U").unwrap(), par.gather("T").unwrap()), want, "{what}");
                let (got, want) = (par.stats(), seq.stats());
                // Every buffer is home again at a step boundary, so the
                // free lists hold what one step's messages needed at
                // most — however many steps ran, and with nothing
                // cycled through them by the copies within a PE.
                let per_step = (got.total_messages() / par.steps()) as usize;
                let held = par.endpoint_buffers();
                assert!((1..=per_step).contains(&held), "{what}: {held} of {per_step}");
                assert_eq!(seq.endpoint_buffers(), 0, "no free lists on the sequential engine");
                assert_eq!(got, want, "{what}");
                drop(par);
                grew_by(0);
            }
        }
    }

    // A step whose transfers all stay within their PE borrows no buffer at
    // all: a 1x1 grid only wraps, as does a shift along a one-PE axis.
    let along_rows = Kernel::compile(
        "PARAM N = 16\nREAL U(N,N), T(N,N)\nT = CSHIFT(U,1,1) + CSHIFT(U,-1,1)\n",
        CompileOptions::full(),
    )
    .unwrap();
    for (kernel, grid) in [(&kernel, [1, 1]), (&along_rows, [1, 2])] {
        let mut local = build(kernel, grid, threaded);
        local.iterate(1000);
        let st = local.stats();
        assert!(st.total_messages() == 0 && st.total().wrap_bytes > 0, "{grid:?}: only wraps");
        assert_eq!(local.endpoint_buffers(), 0, "{grid:?}");
        grew_by(grid[0] * grid[1] - 1);
    }
    grew_by(0);

    // A PE that panics in the middle of such a copy (it has lost its array)
    // fails the step, naming itself, and poisons the plan: the next step
    // fails at once with the same message, and dropping still joins.
    {
        let mut plan = build(&along_rows, [1, 2], threaded);
        plan.step();
        let u = along_rows.array_id("U").unwrap().0 as usize;
        plan.machine.pes[1].subgrids[u] = None;
        let failures: Vec<String> = (0..2)
            .map(|_| {
                let failed = catch_unwind(AssertUnwindSafe(|| {
                    plan.step();
                }));
                *failed.unwrap_err().downcast::<String>().expect("a message")
            })
            .collect();
        assert!(failures[0].starts_with("PE 1 panicked during a step"), "{}", failures[0]);
        assert_eq!(failures[1], failures[0]);
        grew_by(1);
    }
    grew_by(0);

    // Two live plans stepped in turn keep a pool each and do not mix up.
    let mut reference = build(&kernel, [2, 2], ExecConfig::new());
    reference.iterate(20);
    let want = reference.gather("T").unwrap();
    {
        let mut a = build(&kernel, [2, 2], threaded);
        let mut b = build(&kernel, [2, 1], threaded);
        for _ in 0..20 {
            a.step();
            b.step();
        }
        grew_by(3 + 1);
        assert_eq!(a.gather("T").unwrap(), want);
        assert_eq!(b.gather("T").unwrap(), want);
    }
    grew_by(0);

    // A plan moved to another thread between steps: the workers do not
    // care who hands them their jobs.
    {
        let mut plan = build(&kernel, [2, 2], threaded);
        plan.iterate(10);
        // Joined by handle: a scope's end only waits for the closure.
        std::thread::scope(|s| s.spawn(|| plan.iterate(10).steps()).join()).unwrap();
        grew_by(3);
        assert_eq!(plan.gather("T").unwrap(), want);
    }
    grew_by(0);
}
