//! The benchmark's own host-time spans: run → workload → pass → job →
//! `build_spec` / `run` / `digest`. Recorded from the benchmark's files
//! only, around the calls into the simulator; kept in memory and written
//! to `benchmark/out/trace.json` when the run ends.

use crate::json::Json;
use std::time::Instant;

/// One completed span. Times are microseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct HostSpan {
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Numeric annotations (e.g. the `run` span's spawn/teardown share).
    pub args: Vec<(&'static str, f64)>,
}

/// An open span; close it with [`Spans::close`].
pub struct Open {
    id: u64,
    parent: u64,
    name: String,
    start_us: f64,
}

impl Open {
    /// Identifier to pass as the parent of child spans.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// In-memory span recorder.
pub struct Spans {
    epoch: Instant,
    next_id: u64,
    pub done: Vec<HostSpan>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            next_id: 1,
            done: Vec::new(),
        }
    }

    /// Microseconds since this recorder was created.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn open(&mut self, parent: u64, name: impl Into<String>) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            name: name.into(),
            start_us: self.now_us(),
        }
    }

    /// Close `open`, returning its duration in seconds.
    pub fn close(&mut self, open: Open, args: Vec<(&'static str, f64)>) -> f64 {
        let end_us = self.now_us();
        let secs = (end_us - open.start_us) / 1e6;
        self.done.push(HostSpan {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_us: open.start_us,
            end_us,
            args,
        });
        secs
    }
}

impl HostSpan {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Num(self.id as f64)),
            ("parent", Json::Num(self.parent as f64)),
            ("name", Json::Str(self.name.clone())),
            ("start_us", Json::Num(self.start_us)),
            ("end_us", Json::Num(self.end_us)),
            (
                "args",
                Json::obj(self.args.iter().map(|&(k, v)| (k, Json::Num(v)))),
            ),
        ])
    }
}
