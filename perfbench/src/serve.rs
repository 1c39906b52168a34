//! Load generators for the serving phase: one submitter thread and one
//! collector thread drive a [`SolverService`].
//!
//! The open loop offers width-1 requests at a fixed rate whatever the
//! service does and times each request from when it was due. The closed
//! loop keeps a fixed number of requests outstanding and counts what
//! completes inside its window. The collector checks every demuxed
//! column bit for bit against its reference.

use crate::trace::{Recorder, Span};
use crate::workload::{Columns, RHS_COLS};
use crate::{bit_equal, Ledger};
use sptrsv::{SolverService, SubmitError, Ticket};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What the open loop measured.
#[derive(Default)]
pub struct OpenLoop {
    /// Due time to collected result, per request.
    pub latency_us: Vec<f64>,
    /// How late the generator submitted each request.
    pub late_us: Vec<f64>,
    /// Time inside `SolverService::submit`, per request.
    pub submit_us: Vec<f64>,
    pub spans: Vec<Span>,
}

/// Request number, due time, root span id, and the submit's outcome.
type Submitted = (usize, Instant, u64, Result<Ticket, SubmitError>);

impl OpenLoop {
    pub fn extend(&mut self, other: OpenLoop) {
        self.latency_us.extend(other.latency_us);
        self.late_us.extend(other.late_us);
        self.submit_us.extend(other.submit_us);
        self.spans.extend(other.spans);
    }
}

/// Offer `rate_hz * seconds` width-1 requests on a fixed schedule,
/// numbered from `first`.
pub fn open_loop(
    svc: &SolverService,
    cols: &Columns<'_>,
    rate_hz: f64,
    seconds: f64,
    first: usize,
    trace: Option<&Recorder>,
    ledger: &mut Ledger,
) -> OpenLoop {
    let requests = (rate_hz * seconds).round() as usize;
    let start = Instant::now();
    let (tx, rx) = mpsc::channel::<Submitted>();
    let (submitter, collector) = std::thread::scope(|s| {
        let submitter = s.spawn(move || {
            let mut rec = trace.map(Recorder::fork);
            let mut late_us = Vec::with_capacity(requests);
            let mut submit_us = Vec::with_capacity(requests);
            for k in 0..requests {
                let i = first + k;
                let due = start + Duration::from_secs_f64(k as f64 / rate_hz);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let root = rec.as_ref().map_or(0, Recorder::next_id);
                let span = rec
                    .as_mut()
                    .map(|r| r.open("service.submit", Some(root), i as u64));
                let t0 = Instant::now();
                let result = svc.submit(cols.block(i, 1).0, 1);
                let t1 = Instant::now();
                if let (Some(r), Some(o)) = (rec.as_mut(), span) {
                    r.close(o);
                }
                late_us.push(us(t0.duration_since(due)));
                submit_us.push(us(t1 - t0));
                tx.send((i, due, root, result))
                    .expect("collector outlives the submitter");
            }
            (late_us, submit_us, rec.map(Recorder::into_spans))
        });
        let collector = s.spawn(move || {
            let mut rec = trace.map(Recorder::fork);
            let mut latency_us = Vec::with_capacity(requests);
            let mut log = Ledger::default();
            for (i, due, root, result) in rx {
                let ticket = match result {
                    Ok(t) => t,
                    Err(e) => {
                        log.fail(format!("open-loop request {i}: submit refused ({e})"));
                        continue;
                    }
                };
                let span = rec
                    .as_mut()
                    .map(|r| r.open("ticket.wait", Some(root), i as u64));
                let x = ticket.wait();
                let done = Instant::now();
                if let Some(r) = rec.as_mut() {
                    let end = r.now();
                    let root_start = end - done.duration_since(due).as_secs_f64();
                    r.close(span.expect("span opened when tracing"));
                    r.push_span(Span {
                        id: root,
                        parent: None,
                        name: "serve.request",
                        op: i as u64,
                        start: root_start,
                        end,
                    });
                }
                latency_us.push(us(done.duration_since(due)));
                log.check(bit_equal(&x, cols.block(i, 1).1), || {
                    format!("open-loop request {i}: demuxed column differs from the reference")
                });
            }
            (latency_us, log, rec.map(Recorder::into_spans))
        });
        (
            submitter.join().expect("submitter thread panicked"),
            collector.join().expect("collector thread panicked"),
        )
    });
    let (late_us, submit_us, sub_spans) = submitter;
    let (latency_us, log, col_spans) = collector;
    ledger.absorb(log);
    let mut spans = sub_spans.unwrap_or_default();
    spans.extend(col_spans.unwrap_or_default());
    OpenLoop {
        latency_us,
        late_us,
        submit_us,
        spans,
    }
}

/// Keep `outstanding` requests in flight for `seconds`; returns the
/// number of requests completed inside that window.
pub fn closed_loop(
    svc: &SolverService,
    cols: &Columns<'_>,
    outstanding: usize,
    seconds: f64,
    ledger: &mut Ledger,
) -> usize {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (tx, rx) = mpsc::channel::<(usize, Result<Ticket, SubmitError>)>();
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    let (completed, log) = std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0.. {
                if i >= outstanding && credit_rx.recv().is_err() {
                    break;
                }
                if Instant::now() >= deadline {
                    break;
                }
                let result = svc.submit(cols.block(i, 1).0, 1);
                if tx.send((i, result)).is_err() {
                    break;
                }
            }
        });
        let collector = s.spawn(move || {
            let mut completed = 0usize;
            let mut log = Ledger::default();
            for (i, result) in rx {
                match result {
                    Ok(ticket) => {
                        let x = ticket.wait();
                        if Instant::now() <= deadline {
                            completed += 1;
                        }
                        log.check(bit_equal(&x, cols.block(i, 1).1), || {
                            format!("closed-loop request {i}: demuxed column differs from the reference")
                        });
                    }
                    Err(e) => log.fail(format!("closed-loop request {i}: submit refused ({e})")),
                }
                // The submitter stops at the deadline; later credits are moot.
                let _ = credit_tx.send(());
            }
            (completed, log)
        });
        collector.join().expect("collector thread panicked")
    });
    ledger.absorb(log);
    completed
}

/// Submit one request per reference column and check each, so the first
/// batches and any lazy set-up happen before the timed phases.
pub fn warm_up(svc: &SolverService, cols: &Columns<'_>, ledger: &mut Ledger) {
    let tickets: Vec<_> = (0..RHS_COLS)
        .map(|i| (i, svc.submit(cols.block(i, 1).0, 1)))
        .collect();
    for (i, t) in tickets {
        match t {
            Ok(t) => {
                let x = t.wait();
                ledger.check(bit_equal(&x, cols.block(i, 1).1), || {
                    format!("warm-up request {i}: demuxed column differs from the reference")
                });
            }
            Err(e) => ledger.fail(format!("warm-up request {i}: submit refused ({e})")),
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
