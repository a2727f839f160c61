//! Compile shim for `loopbench`, which reads `measure.pool_tasks` /
//! `measure.pool_parks` from here. Stages run serially, so both are
//! always 0; the module goes when those metrics do.

/// Stage fan-out counters ([`SweepPool::stats`]); always zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Always 0.
    pub tasks: u64,
    /// Always 0.
    pub parks: u64,
}

/// Handle `loopbench` asks for the counters through.
#[derive(Debug)]
pub struct SweepPool(());

impl SweepPool {
    /// The one process-wide instance.
    pub fn global() -> &'static SweepPool {
        &SweepPool(())
    }

    /// Always zeros: no stage task is ever handed to another thread.
    pub fn stats(&self) -> PoolStats {
        PoolStats { tasks: 0, parks: 0 }
    }
}
