// Tripping fixture for `engine-step-fork` (analyzed as
// `crates/pipeline/src/stream.rs`): an engine that calls a step's
// primitive itself instead of going through the function that owns the
// step — exactly how the stream came to settle without transient
// replays and the shell to preview one booking and commit another.
// Never compiled — lexed only.

fn next(&mut self) -> Option<JobOutcome> {
    let queued = self.buffer.pop()?;
    // a private admission match: the fifth copy
    match admit_job(self.pool, &self.planner, &queued.job, digits, overlap, floor, &adm) { // FINDING: engine-step-fork
        Ok(digits) => {}
        Err(predicted_end) => return None,
    }
    let solved = std::thread::scope(|scope| { // FINDING: engine-step-fork
        scope.spawn(|| interpret(&group)).join().unwrap()
    });
    // settles, but forgets the replay the other engines run
    let shares = settle_staged_dispatch(self.pool, &mut g, &shape, passes_run, &self.sched); // FINDING: engine-step-fork
    Some(assemble(&g, solved, shares))
}

impl Shell {
    fn place(&self, pool: &DevicePool, job: &Job, now: f64) -> Option<usize> {
        free.into_iter()
            .map(|d| (d, pool.preview_stages(d, &reqs, overlap, now))) // FINDING: engine-step-fork
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(d, _)| d)
    }

    fn settle_entry(&mut self, pool: &mut DevicePool, mut e: RoundEntry) {
        let hits = replay_transients(pool, &mut e.g, e.job.id, 3, 0.05, true); // FINDING: engine-step-fork
        let helper = |e: &mut RoundEntry| {
            // a closure does not launder the call: the fn still owns it
            replay_transients(pool, &mut e.g, e.job.id, 3, 0.05, true) // FINDING: engine-step-fork
        };
    }
}
