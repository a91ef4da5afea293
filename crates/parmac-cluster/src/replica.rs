//! The resident copy of one shard's binary codes that a serving machine
//! keeps — shared by the in-process server actors and the cross-process
//! `parmac-machined` workers.

use crate::backend::ZUpdate;
use parmac_hash::BinaryCodes;
use std::collections::HashMap;

/// One hosted shard: the materialised `(points, codes)` pair, fed by
/// seq-stamped `LoadShard` snapshots and streamed Z updates, so the shard can
/// be donated to a peer (`FetchShard`) as it stands. `row_of` maps global
/// point id → row, so an update to an existing point rewrites its row
/// instead of appending.
pub(crate) struct ShardReplica {
    pub(crate) points: Vec<usize>,
    pub(crate) codes: BinaryCodes,
    row_of: HashMap<usize, usize>,
    /// Publish stamp of the authoritative data this replica derives from
    /// (0 = bootstrapped by streamed updates, before any full publish).
    pub(crate) seq: u64,
}

impl ShardReplica {
    // lint: actor-region — replicas are maintained on serving-actor and worker threads
    pub(crate) fn new(points: Vec<usize>, codes: BinaryCodes, seq: u64) -> Self {
        let row_of = points.iter().enumerate().map(|(r, &p)| (p, r)).collect();
        ShardReplica {
            points,
            codes,
            row_of,
            seq,
        }
    }

    /// An empty replica of `width`-bit codes (at least 1), for a machine
    /// whose first contact with the shard is a stream of updates rather than
    /// a snapshot.
    pub(crate) fn empty(width: usize) -> Self {
        ShardReplica::new(Vec::new(), BinaryCodes::zeros(0, width.max(1)), 0)
    }

    /// Upserts one point's code.
    pub(crate) fn apply(&mut self, update: &ZUpdate) {
        match self.row_of.get(&update.point) {
            Some(&row) => self.codes.set_code(row, &update.code),
            None => {
                self.row_of.insert(update.point, self.points.len());
                self.points.push(update.point);
                self.codes.push_code(&update.code);
            }
        }
    }

    /// A `(points, codes, seq)` copy for donation to a peer.
    pub(crate) fn snapshot(&self) -> (Vec<usize>, BinaryCodes, u64) {
        (self.points.clone(), self.codes.clone(), self.seq)
    }
    // lint: end-actor-region
}
