//! Chrome-trace-format export: render a recorded event stream as a
//! JSON document that `chrome://tracing` and Perfetto open natively.
//!
//! Each pool device becomes a trace *process* (named from its
//! [`Event::Device`] event) with two *threads* — track `prep` (tid 0)
//! for the host/prep lane and track `compute` (tid 1) for the device
//! lane. Stage bookings render as duration slices on both lanes, plan
//! spans as compute slices, and refunds / holds / extensions /
//! deadline misses / gap fills / compactions as instant markers, so a
//! staged schedule's overlap and reclaimed holes are visually
//! inspectable. The pool-wide host staging workers render as one extra
//! process ([`STAGING_PID`]) with a thread per worker, carrying every
//! prep interval booked through the shared host resource.
//!
//! Timestamps: the pool's simulated milliseconds map to the trace's
//! microseconds (×1000), preserving sub-millisecond stage structure.

use crate::json::{self, Json};
use crate::{Event, StageKind};

/// Prep-lane (host) thread id within each device's process.
pub const TID_PREP: u64 = 0;
/// Compute-lane (device) thread id within each device's process.
pub const TID_COMPUTE: u64 = 1;
/// Trace process id of the pool-wide host staging workers (one thread
/// per worker). Far above any real device id so the processes never
/// collide.
pub const STAGING_PID: usize = 0xff00;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn us(ms: f64) -> f64 {
    ms * 1.0e3
}

/// One trace event line (without the surrounding array punctuation).
struct Lines(Vec<String>);

impl Lines {
    fn meta(&mut self, pid: usize, tid: Option<u64>, what: &str, name: &str) {
        let tid = tid.map(|t| format!("\"tid\":{t},")).unwrap_or_default();
        self.0.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},{tid}\"name\":\"{what}\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }

    fn slice(&mut self, pid: usize, tid: u64, name: &str, start_ms: f64, end_ms: f64, args: &str) {
        if end_ms <= start_ms {
            return; // zero-width interval: nothing to draw
        }
        self.0.push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\
             \"name\":\"{}\",\"args\":{{{args}}}}}",
            us(start_ms),
            us(end_ms - start_ms),
            esc(name)
        ));
    }

    fn instant(&mut self, pid: usize, tid: u64, name: &str, at_ms: f64, args: &str) {
        self.0.push(format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\
             \"name\":\"{}\",\"args\":{{{args}}}}}",
            us(at_ms),
            esc(name)
        ));
    }
}

fn stage_name(kind: StageKind, rung: &str) -> String {
    format!("{} {rung}", kind.label())
}

/// Render `events` as a complete Chrome-trace JSON document.
///
/// Devices that never appear in a [`Event::Device`] announcement are
/// still rendered (their slices imply the process) but keep numeric
/// names; attach the observer before running to get model names.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut lines = Lines(Vec::with_capacity(events.len() + 8));
    // process + thread naming first: one process per announced device,
    // one named thread per lane — "one track per device lane"
    let mut announced: Vec<(usize, &str)> = Vec::new();
    for ev in events {
        if let Event::Device { device, name } = ev {
            if !announced.iter().any(|(d, _)| d == device) {
                announced.push((*device, name));
            }
        }
    }
    for &(device, name) in &announced {
        lines.meta(device, None, "process_name", &format!("gpu{device} {name}"));
        lines.meta(device, Some(TID_PREP), "thread_name", "prep");
        lines.meta(device, Some(TID_COMPUTE), "thread_name", "compute");
    }
    // the host staging pool is its own process, one thread per worker
    let mut workers: Vec<usize> = Vec::new();
    for ev in events {
        let w = match ev {
            Event::StagingWorker { worker } => *worker,
            Event::StagingBooked { worker, .. } => *worker,
            _ => continue,
        };
        if !workers.contains(&w) {
            workers.push(w);
        }
    }
    if !workers.is_empty() {
        workers.sort_unstable();
        lines.meta(STAGING_PID, None, "process_name", "host staging");
        for &w in &workers {
            lines.meta(
                STAGING_PID,
                Some(w as u64),
                "thread_name",
                &format!("worker{w}"),
            );
        }
    }
    for ev in events {
        match *ev {
            Event::StageBooked {
                device,
                job,
                stage,
                kind,
                rung,
                host_start_ms,
                host_end_ms,
                dev_start_ms,
                dev_end_ms,
            } => {
                let args = format!("\"job\":{job},\"stage\":{stage}");
                lines.slice(
                    device,
                    TID_PREP,
                    &format!("{} prep", stage_name(kind, rung)),
                    host_start_ms,
                    host_end_ms,
                    &args,
                );
                lines.slice(
                    device,
                    TID_COMPUTE,
                    &stage_name(kind, rung),
                    dev_start_ms,
                    dev_end_ms,
                    &args,
                );
            }
            Event::Refund {
                device,
                from_stage,
                freed_ms,
                refunded_ms,
                at_ms,
            } => {
                lines.instant(
                    device,
                    TID_COMPUTE,
                    "refund",
                    at_ms,
                    &format!(
                        "\"from_stage\":{from_stage},\"freed_ms\":{freed_ms},\
                         \"refunded_ms\":{refunded_ms}"
                    ),
                );
            }
            Event::Held { device, until_ms } => {
                lines.instant(device, TID_PREP, "hold", until_ms, "");
            }
            Event::GapFilled {
                device,
                start_ms,
                lead_ms,
            } => {
                lines.instant(
                    device,
                    TID_COMPUTE,
                    "gap fill",
                    start_ms,
                    &format!("\"lead_ms\":{lead_ms}"),
                );
            }
            Event::Compacted {
                device,
                at_ms,
                freed_ms,
                slid,
                slid_ms,
            } => {
                lines.instant(
                    device,
                    TID_COMPUTE,
                    "compact",
                    at_ms,
                    &format!("\"freed_ms\":{freed_ms},\"slid\":{slid},\"slid_ms\":{slid_ms}"),
                );
            }
            Event::StagingBooked {
                worker,
                device,
                start_ms,
                end_ms,
            } => {
                lines.slice(
                    STAGING_PID,
                    worker as u64,
                    &format!("prep gpu{device}"),
                    start_ms,
                    end_ms,
                    &format!("\"device\":{device}"),
                );
            }
            Event::StagingWait {
                device,
                worker,
                wait_ms,
                at_ms,
            } => {
                lines.instant(
                    STAGING_PID,
                    worker as u64,
                    "staging wait",
                    at_ms,
                    &format!("\"device\":{device},\"wait_ms\":{wait_ms}"),
                );
            }
            Event::PassExtended {
                device,
                job,
                pass,
                end_ms,
            } => {
                lines.instant(
                    device,
                    TID_COMPUTE,
                    "extend",
                    end_ms,
                    &format!("\"job\":{job},\"pass\":{pass}"),
                );
            }
            Event::FaultInjected {
                device,
                job,
                at_ms,
                retry,
            } => {
                lines.instant(
                    device,
                    TID_COMPUTE,
                    "fault",
                    at_ms,
                    &format!("\"job\":{job},\"retry\":{retry}"),
                );
            }
            Event::DeviceLost {
                device,
                at_ms,
                interrupted,
                refund_ms,
            } => {
                lines.instant(
                    device,
                    TID_COMPUTE,
                    "device lost",
                    at_ms,
                    &format!("\"interrupted\":{interrupted},\"refund_ms\":{refund_ms}"),
                );
            }
            Event::RetryBooked {
                device,
                job,
                end_ms,
                backoff_ms,
            } => {
                lines.instant(
                    device,
                    TID_COMPUTE,
                    "retry",
                    end_ms,
                    &format!("\"job\":{job},\"backoff_ms\":{backoff_ms}"),
                );
            }
            Event::CircuitOpen {
                device,
                at_ms,
                faults,
            } => {
                lines.instant(
                    device,
                    TID_COMPUTE,
                    "circuit open",
                    at_ms,
                    &format!("\"faults\":{faults}"),
                );
            }
            Event::CircuitProbe { device, job, at_ms } => {
                lines.instant(
                    device,
                    TID_COMPUTE,
                    "circuit probe",
                    at_ms,
                    &format!("\"job\":{job}"),
                );
            }
            Event::CircuitClose { device, at_ms } => {
                lines.instant(device, TID_COMPUTE, "circuit close", at_ms, "");
            }
            Event::JobSettled {
                job,
                device,
                end_ms,
                deadline_ms,
                has_deadline,
                ..
            } if has_deadline && end_ms > deadline_ms => {
                lines.instant(
                    device,
                    TID_COMPUTE,
                    "deadline miss",
                    end_ms,
                    &format!("\"job\":{job},\"late_ms\":{}", end_ms - deadline_ms),
                );
            }
            _ => {}
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", lines.0.join(",\n"))
}

/// Validate an exported trace: it must parse as JSON, contain a
/// `traceEvents` array, and name one `prep` and one `compute` track
/// for each of `devices` processes. Returns the number of duration
/// slices on success.
pub fn validate_trace(doc: &str, devices: usize) -> Result<usize, String> {
    let root = json::parse(doc)?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents array")?;
    let mut lanes = vec![[false, false]; devices];
    let mut slices = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        match ph {
            "M" if ev.get("name").and_then(Json::as_str) == Some("thread_name") => {
                let pid = ev
                    .get("pid")
                    .and_then(Json::as_f64)
                    .ok_or("M without pid")? as usize;
                let tid = ev
                    .get("tid")
                    .and_then(Json::as_f64)
                    .ok_or("M without tid")? as u64;
                let lane = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .ok_or("thread_name without args.name")?;
                if pid == STAGING_PID {
                    if lane != format!("worker{tid}") {
                        return Err(format!("unexpected staging thread {lane:?}"));
                    }
                    continue;
                }
                if pid >= devices {
                    return Err(format!("track for unknown device {pid}"));
                }
                match (tid, lane) {
                    (TID_PREP, "prep") => lanes[pid][0] = true,
                    (TID_COMPUTE, "compute") => lanes[pid][1] = true,
                    other => return Err(format!("unexpected lane {other:?}")),
                }
            }
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or("X without dur")?;
                if dur <= 0.0 {
                    return Err("non-positive slice duration".into());
                }
                slices += 1;
            }
            _ => {}
        }
    }
    for (d, [prep, compute]) in lanes.iter().enumerate() {
        if !prep || !compute {
            return Err(format!(
                "device {d} missing a lane track (prep={prep}, compute={compute})"
            ));
        }
    }
    Ok(slices)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Event> {
        vec![
            Event::Device {
                device: 0,
                name: "v100",
            },
            Event::Device {
                device: 1,
                name: "p100",
            },
            Event::StageBooked {
                device: 0,
                job: 7,
                stage: 0,
                kind: StageKind::Factor,
                rung: "d2",
                host_start_ms: 0.0,
                host_end_ms: 0.4,
                dev_start_ms: 0.4,
                dev_end_ms: 1.9,
            },
            Event::StageBooked {
                device: 1,
                job: 8,
                stage: 1,
                kind: StageKind::Correct,
                rung: "d2",
                host_start_ms: 0.0,
                host_end_ms: 0.3,
                dev_start_ms: 0.3,
                dev_end_ms: 2.5,
            },
            Event::Refund {
                device: 0,
                from_stage: 4,
                freed_ms: 0.7,
                refunded_ms: 0.7,
                at_ms: 1.9,
            },
        ]
    }

    #[test]
    fn export_round_trips_and_names_every_lane() {
        let doc = chrome_trace(&sample());
        let slices = validate_trace(&doc, 2).expect("trace must validate");
        assert_eq!(slices, 4, "prep + compute of the factor and of the correct");
    }

    #[test]
    fn validation_catches_a_missing_lane() {
        // only device 0 announced: device 1's lanes are never named
        let evs: Vec<Event> = sample()
            .into_iter()
            .filter(|e| !matches!(e, Event::Device { device: 1, .. }))
            .collect();
        let doc = chrome_trace(&evs);
        assert!(validate_trace(&doc, 2).is_err());
        assert!(validate_trace(&doc, 1).is_ok());
    }

    #[test]
    fn staging_workers_render_as_their_own_process() {
        let doc = chrome_trace(&[
            Event::Device {
                device: 0,
                name: "v100",
            },
            Event::StagingWorker { worker: 0 },
            Event::StagingWorker { worker: 1 },
            Event::StagingBooked {
                worker: 1,
                device: 0,
                start_ms: 0.0,
                end_ms: 4.0,
            },
            Event::StagingWait {
                device: 0,
                worker: 1,
                wait_ms: 4.0,
                at_ms: 4.0,
            },
            Event::GapFilled {
                device: 0,
                start_ms: 2.0,
                lead_ms: 3.0,
            },
            Event::Compacted {
                device: 0,
                at_ms: 2.0,
                freed_ms: 3.0,
                slid: 1,
                slid_ms: 3.0,
            },
        ]);
        // 1 staging slice; instants don't count
        assert_eq!(validate_trace(&doc, 1).unwrap(), 1);
        assert!(doc.contains("host staging"));
        assert!(doc.contains("worker1"));
    }

    #[test]
    fn zero_width_intervals_draw_nothing() {
        let doc = chrome_trace(&[
            Event::Device {
                device: 0,
                name: "a100",
            },
            Event::StageBooked {
                device: 0,
                job: 0,
                stage: 2,
                kind: StageKind::Residual,
                rung: "d4",
                host_start_ms: 1.0,
                host_end_ms: 1.0, // zero-width prep share
                dev_start_ms: 1.0,
                dev_end_ms: 1.5,
            },
        ]);
        assert_eq!(validate_trace(&doc, 1).unwrap(), 1);
    }
}
