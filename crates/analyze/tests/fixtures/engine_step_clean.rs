// Clean fixture for `engine-step-fork` (analyzed as
// `crates/pipeline/src/batch.rs`): each step's primitive is called only
// from the function that owns the step, definitions are not calls, and
// look-alike names are nobody's business. Never compiled — lexed only.

fn admit_job(pool: &DevicePool, job: &Job, digits: u32) -> Result<u32, f64> {
    Ok(digits)
}

pub(crate) fn admit(pool: &DevicePool, job: &Job, digits: u32) -> Admitted {
    match admit_job(pool, job, digits) {
        Ok(digits) => Admitted::Run { digits },
        Err(end) => Admitted::Shed(tombstone(job, end)),
    }
}

fn earliest_end(pool: &DevicePool, reqs: &[StageReq], release: f64) -> f64 {
    pool.devices()
        .iter()
        .map(|d| pool.preview_stages(d.id, reqs, true, release))
        .fold(f64::INFINITY, f64::min)
}

pub(crate) fn dispatch_group_where(pool: &mut DevicePool, eligible: impl Fn(&PoolDevice) -> bool) {
    // a closure inside the owner is still the owner
    let preview = |d: &PoolDevice, reqs: &[StageReq]| pool.preview_stages(d.id, reqs, true, 0.0);
    place_by_end(pool, eligible, preview);
}

pub(crate) fn execute_round(pool: &DevicePool, queues: Vec<Vec<usize>>) -> Vec<Solved> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = queues.into_iter().map(|q| scope.spawn(move || run(q))).collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    })
}

fn settle_staged_dispatch(pool: &mut DevicePool, g: &mut GroupDispatch) -> (f64, f64) {
    (0.0, 0.0)
}

pub(crate) fn settle_group(pool: &mut DevicePool, g: &mut GroupDispatch) -> Vec<JobOutcome> {
    let shares = settle_staged_dispatch(pool, g);
    let hits = replay_transients(pool, g, 3, 0.05);
    assemble(g, shares, hits)
}

fn run_batch(pool: &mut DevicePool, jobs: &[Job]) {
    // the engines call the owners
    let verdict = admit(pool, &jobs[0], 25);
    let solved = execute_round(pool, queues);
    let outcomes = settle_group(pool, &mut g);
    // a lexical scope, a method named `scope`, a span guard: not threads
    let scope = tracing.scope("settle");
    let preview_stages_ms = 0.0;
}
