//! Per-stage virtual-time waits of a recording run, pooled over groups.
//!
//! Same reduction as `agreement::spans::aggregate_spans` — the first mark
//! per stage wins, a command belongs to the group its confirm mark (else
//! its submit mark) names — but fed chunk by chunk and keeping exact
//! durations, so the benchmark reports exact pooled percentiles.

use agreement::spans::{
    STAGE_CONFIRM, STAGE_DECIDE, STAGE_DELIVER, STAGE_PROPOSE, STAGE_ROUTE, STAGE_SUBMIT,
};
use simnet::obs::{Event, EventBody};

const STAGES: usize = 6;
const UNSET: u64 = u64::MAX;

/// The reported stage transitions `(from, to, name)`.
pub const TRANSITIONS: [(u8, u8, &str); 5] = [
    (STAGE_SUBMIT, STAGE_ROUTE, "route"),
    (STAGE_ROUTE, STAGE_PROPOSE, "propose"),
    (STAGE_PROPOSE, STAGE_DELIVER, "deliver"),
    (STAGE_PROPOSE, STAGE_DECIDE, "decide"),
    (STAGE_DECIDE, STAGE_CONFIRM, "confirm"),
];

/// First-mark table of one run's commands.
pub struct SpanTable {
    /// `first[id * STAGES + stage]`: tick of the command's first mark.
    first: Vec<u64>,
    /// Group named by the command's confirm (else submit) mark.
    group: Vec<u64>,
}

impl SpanTable {
    pub fn new(total_cmds: usize) -> SpanTable {
        SpanTable {
            first: vec![UNSET; (total_cmds + 1) * STAGES],
            group: vec![UNSET; total_cmds + 1],
        }
    }

    fn total_cmds(&self) -> usize {
        self.group.len() - 1
    }

    /// Folds one chunk of the time-ordered event stream in.
    pub fn absorb(&mut self, events: &[Event]) {
        for ev in events {
            let EventBody::Mark { span, stage, data } = ev.body else {
                continue;
            };
            let (id, stage) = (span as usize, stage as usize);
            if id == 0 || id > self.total_cmds() || stage >= STAGES {
                continue;
            }
            let slot = &mut self.first[id * STAGES + stage];
            if *slot != UNSET {
                continue;
            }
            *slot = ev.at.0;
            if stage == STAGE_CONFIRM as usize
                || (stage == STAGE_SUBMIT as usize && self.group[id] == UNSET)
            {
                self.group[id] = data;
            }
        }
    }

    /// Durations of every transition, in ticks, per command in id order:
    /// `(group, transition index, ticks)`.
    pub fn durations(&self) -> impl Iterator<Item = (u64, usize, u64)> + '_ {
        (1..=self.total_cmds()).flat_map(move |id| {
            let marks = &self.first[id * STAGES..(id + 1) * STAGES];
            let group = self.group[id];
            TRANSITIONS
                .iter()
                .enumerate()
                .filter_map(move |(t, &(from, to, _))| {
                    let (a, b) = (marks[from as usize], marks[to as usize]);
                    (group != UNSET && a != UNSET && b != UNSET && b >= a)
                        .then(|| (group, t, b - a))
                })
        })
    }

    /// Sorted durations per transition, pooled over groups.
    pub fn pooled(&self) -> Vec<Vec<u64>> {
        let mut out = vec![Vec::new(); TRANSITIONS.len()];
        for (_, t, ticks) in self.durations() {
            out[t].push(ticks);
        }
        out.iter_mut().for_each(|v| v.sort_unstable());
        out
    }
}
