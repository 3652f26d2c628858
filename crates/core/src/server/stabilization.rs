//! The Universal Stable Time protocol (paper §IV-B, Alg. 4 lines 34–38).
//!
//! Within each DC, servers form an aggregation tree. Each server merges
//! its version vector with the freshest reports of its tree children and
//! forwards the aggregate towards the DC root; the root's aggregate is the
//! DC's Global Stabilization Vector (GSV), whose minimum entry is the DC's
//! Global Stable Time (GST). Roots exchange GSTs; the minimum over all DCs
//! is the **UST**, which each root broadcasts (monotonically) to its DC.
//! The same messages carry the oldest-active-snapshot aggregate that
//! bounds garbage collection (`S_old`).
//!
//! All three travel as [`Msg::GossipDigest`]: a report, a root's GST and
//! the broadcast are each a one-entry digest (`frames: 1`), the shape the
//! batching layer folds a link's digests into, and every arrival goes
//! through one handler, `on_gossip_digest`.
//!
//! *When* a server forwards depends on its links. The paper's schedule is
//! one frame per ∆G / ∆U tick, and that is exactly what runs when batching
//! is off. Behind batched links, which are paced by stable-time progress,
//! stabilisation is **push-on-arrival**: whenever an arrival or the server's own replicate
//! tick moves its stable time, the derived frame is returned at once —
//! a child's report, a root's GST and, when the UST moved, the UST
//! broadcast — and the ticks remain only as keep-alives for idle
//! links (and for `S_old`, which rides along). Offering more frames is
//! free there because the coalescer sends one message per quantum of
//! stable-time progress however many it is offered.
//!
//! Safety note: a server's aggregate must *under*-approximate its subtree,
//! so children it has not heard from yet are seeded at `Timestamp::ZERO`
//! for every DC their partition replicates with.

use std::collections::HashMap;

use paris_proto::{DigestReport, Envelope, Msg};
use paris_types::{DcId, Timestamp};

use super::Server;

impl Server {
    /// Seeds the child-report table so the aggregate is conservative until
    /// every child has reported (called from `Server::new` via this
    /// crate-internal hook).
    pub(crate) fn seed_child_reports(&mut self) {
        for child in self.topo.tree_children(self.id) {
            self.child_reports
                .seed(child.partition, self.topo.replicas(child.partition));
        }
    }

    /// This server's subtree aggregate: per-source-DC minimum over its own
    /// version vector and all child reports, plus the subtree's oldest
    /// active snapshot.
    fn subtree_aggregate(&self) -> (Vec<(DcId, Timestamp)>, Timestamp) {
        let mut mins: HashMap<DcId, Timestamp> =
            self.vv.iter().map(|(dc, ts)| (*dc, *ts)).collect();
        let mut oldest = self.oldest_active_snapshot();
        self.child_reports.for_each(|report, child_oldest| {
            for (dc, ts) in report {
                mins.entry(*dc)
                    .and_modify(|cur| *cur = (*cur).min(*ts))
                    .or_insert(*ts);
            }
            oldest = oldest.min(child_oldest);
        });
        let mut mins: Vec<(DcId, Timestamp)> = mins.into_iter().collect();
        mins.sort_unstable_by_key(|(dc, _)| *dc);
        (mins, oldest)
    }

    /// This server's stable time: the minimum of its subtree aggregate (at
    /// a root, the DC's GST). The allocation-free test of whether an
    /// arrival moved anything worth forwarding.
    fn stable_min(&self) -> Timestamp {
        let mut min = self.installed_watermark();
        self.child_reports.for_each(|report, _| {
            for (_, ts) in report {
                min = min.min(*ts);
            }
        });
        min
    }

    /// The ∆G tick: push the subtree aggregate one level up the tree, or —
    /// at the root — refresh the DC's GSV/GST and exchange it with the
    /// other DC roots. Behind paced links this is the keep-alive;
    /// `push_stable` forwards every move as it happens.
    pub fn on_gst_tick(&mut self, _now: u64) -> Vec<Envelope> {
        let (mins, oldest_active) = self.subtree_aggregate();
        let stable = mins
            .iter()
            .map(|(_, ts)| *ts)
            .min()
            .unwrap_or(Timestamp::ZERO);
        self.pushed_stable = stable;
        match self.topo.tree_parent(self.id) {
            Some(parent) => vec![Envelope::new(
                self.id,
                parent,
                Msg::GossipDigest {
                    reports: vec![DigestReport {
                        partition: self.id.partition,
                        mins,
                        oldest_active,
                    }],
                    roots: Vec::new(),
                    ust: None,
                    frames: 1,
                },
            )],
            None => {
                // Root: GST = min over the GSV entries (Alg. 4 line 35).
                self.dc_roots.publish_own(self.id.dc, stable, oldest_active);
                self.topo
                    .all_roots()
                    .into_iter()
                    .filter(|r| r.dc != self.id.dc)
                    .map(|r| {
                        Envelope::new(
                            self.id,
                            r,
                            Msg::GossipDigest {
                                reports: Vec::new(),
                                roots: vec![(self.id.dc, stable, oldest_active)],
                                ust: None,
                                frames: 1,
                            },
                        )
                    })
                    .collect()
            }
        }
    }

    /// The ∆U tick (roots only): UST = min over every DC's GST
    /// (Alg. 4 lines 36–38), `S_old` = min over every DC's oldest active
    /// snapshot; both advance monotonically and are broadcast to the DC.
    pub fn on_ust_tick(&mut self, now: u64) -> Vec<Envelope> {
        self.ust_round(now, true)
    }

    /// One UST computation at a root. The tick broadcasts whatever it
    /// finds (`keep_alive`); a push broadcasts only a UST that moved.
    fn ust_round(&mut self, now: u64, keep_alive: bool) -> Vec<Envelope> {
        if self.topo.tree_parent(self.id).is_some() {
            return Vec::new(); // not a root
        }
        // All M DCs must have reported at least once (own included).
        let Some((min_gst, min_oldest)) = self.dc_roots.stable_mins(self.topo.dcs() as usize)
        else {
            return Vec::new();
        };
        // Alg. 4 line 38: enforce monotonicity.
        if min_gst > self.ust {
            self.ust = min_gst;
            self.log_ust(min_gst, now);
        } else if !keep_alive {
            return Vec::new();
        }
        let ust = self.ust;
        self.s_old = self.s_old.max(min_oldest.min(ust));
        let s_old = self.s_old;
        self.topo
            .servers_in_dc(self.id.dc)
            .into_iter()
            .filter(|s| *s != self.id)
            .map(|s| {
                let broadcast = Msg::GossipDigest {
                    reports: Vec::new(),
                    roots: Vec::new(),
                    ust: Some((ust, s_old)),
                    frames: 1,
                };
                Envelope::new(self.id, s, broadcast)
            })
            .collect()
    }

    /// Push-on-arrival (paced links only; see the module docs): called
    /// after anything that may have moved this server's inputs — a
    /// replication frame (a heartbeat included), a digest, the server's
    /// own replicate tick. Forwards the aggregate if its stable time moved
    /// past what was last forwarded and, at a root, broadcasts the UST if
    /// that moved. Without pacing it returns nothing and the ticks are the
    /// whole schedule.
    pub(super) fn push_stable(&mut self, now: u64) -> Vec<Envelope> {
        if !self.push {
            return Vec::new();
        }
        let mut out = if self.stable_min() > self.pushed_stable {
            self.on_gst_tick(now)
        } else {
            Vec::new()
        };
        out.extend(self.ust_round(now, false));
        out
    }

    /// A gossip digest — a child's report, another DC root's GST, the
    /// root's UST broadcast, or several of them coalesced: folds each
    /// component into its table. Because every component is monotonic and
    /// the tables keep only the freshest value, a coalesced digest is
    /// indistinguishable from delivering its frames in order.
    pub(super) fn on_gossip_digest(
        &mut self,
        reports: &[DigestReport],
        roots: &[(DcId, Timestamp, Timestamp)],
        ust: Option<(Timestamp, Timestamp)>,
        frames: u32,
        now: u64,
    ) -> Vec<Envelope> {
        // Unbatched links send one-entry digests: nothing was coalesced.
        if self.push {
            self.stats.coalesced_frames += u64::from(frames);
        }
        for r in reports {
            self.child_reports
                .fold(r.partition, &r.mins, r.oldest_active);
        }
        for (dc, gst, oldest_active) in roots {
            self.dc_roots.fold_remote(*dc, *gst, *oldest_active);
        }
        if let Some((ust, s_old)) = ust {
            self.on_ust_broadcast(ust, s_old, now);
        }
        self.push_stable(now)
    }

    /// The root's UST/S_old broadcast.
    fn on_ust_broadcast(&mut self, ust: Timestamp, s_old: Timestamp, now: u64) {
        if ust > self.ust {
            self.ust = ust;
            self.log_ust(ust, now);
        }
        self.s_old = self.s_old.max(s_old);
    }
}
