//! The fixed metric vocabulary.
//!
//! Counters, histograms, stages and events are closed enums rather than
//! string keys: recording indexes a fixed-size atomic array (no hashing,
//! no allocation on the hot path) and snapshots order deterministically
//! by enum discriminant.

/// Monotonic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Requests that resolved to a live owner and were served.
    RequestsRouted,
    /// Requests arriving while the user had no visible satellite.
    RequestsUnreachable,
    /// Requests whose owner (and every remap candidate) was dead.
    RequestsUnroutable,
    /// Cache hits (owner or relay neighbour).
    CacheHits,
    /// Cache misses (served via ground uplink).
    CacheMisses,
    /// Hits served by a relay neighbour rather than the owner itself.
    RelayHits,
    /// Requests remapped off a dead bucket owner.
    RemappedRequests,
    /// Extra ISL hops taken by fault-avoiding detour routes.
    RerouteExtraHops,
    /// Misses attributed to a post-restart cold cache.
    ColdRestartMisses,
    /// Satellite caches wiped by a down event.
    CacheWipes,
    /// Satellites marked cold by an up event.
    ColdMarks,
    /// Scheduler epochs processed.
    ScheduleEpochs,
    /// Timed fault events applied at epoch boundaries.
    FaultEventsApplied,
    /// Prefetch rounds executed at epoch boundaries.
    PrefetchRounds,
    /// Route resolutions under a faulted view, whether a surviving
    /// staircase or the breadth-first search answered.
    BfsRoutes,
    /// Admission attempts refused by the capacity ledger.
    RequestsShed,
    /// Retry attempts beyond the first (replica probes under overload).
    RetryAttempts,
    /// Requests served origin-direct after exhausting every replica.
    OriginFallbacks,
    /// Requests dropped after the retry policy ran out.
    RequestsDropped,
    /// Requests whose live owner was unreachable across a partitioned
    /// grid, served degraded over the origin bent pipe.
    RequestsPartitioned,
    /// Requests coalesced onto an in-flight origin fetch (delayed hits).
    DelayedHits,
    /// Followers aboard origin fetches that completed and retired.
    CoalescedRequests,
    /// Origin fetches retired (completed and admitted) by the
    /// delayed-hit model.
    FetchesRetired,
    /// Protocol frames sent by the serving-plane router (first sends
    /// and resends both count).
    NetFramesSent,
    /// Frames re-sent after a timeout or reconnect resync.
    NetFramesResent,
    /// Per-frame deadline expiries observed by the router.
    NetTimeouts,
    /// Router reconnect attempts (initial connects excluded).
    NetReconnects,
    /// Circuit-breaker transitions into the open state.
    NetCircuitOpens,
    /// Duplicate frames dropped by shard-server sequence dedup.
    NetDuplicatesDropped,
    /// Never incremented: an open circuit fails the run rather than
    /// serving a shard's requests from the origin. It stays because
    /// counters are persisted and framed as their index into
    /// [`Counter::ALL`]; removing it would renumber every counter after
    /// it.
    NetRequestsDegraded,
    /// Full-fleet rescans that restarted a scheduler's visibility window
    /// (every other scheduled epoch tested its candidate lists only).
    VisibilityRefreshes,
}

impl Counter {
    /// Every counter, in snapshot order.
    pub const ALL: [Counter; 31] = [
        Counter::RequestsRouted,
        Counter::RequestsUnreachable,
        Counter::RequestsUnroutable,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::RelayHits,
        Counter::RemappedRequests,
        Counter::RerouteExtraHops,
        Counter::ColdRestartMisses,
        Counter::CacheWipes,
        Counter::ColdMarks,
        Counter::ScheduleEpochs,
        Counter::FaultEventsApplied,
        Counter::PrefetchRounds,
        Counter::BfsRoutes,
        Counter::RequestsShed,
        Counter::RetryAttempts,
        Counter::OriginFallbacks,
        Counter::RequestsDropped,
        Counter::RequestsPartitioned,
        Counter::DelayedHits,
        Counter::CoalescedRequests,
        Counter::FetchesRetired,
        Counter::NetFramesSent,
        Counter::NetFramesResent,
        Counter::NetTimeouts,
        Counter::NetReconnects,
        Counter::NetCircuitOpens,
        Counter::NetDuplicatesDropped,
        Counter::NetRequestsDegraded,
        Counter::VisibilityRefreshes,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::RequestsRouted => "requests_routed",
            Counter::RequestsUnreachable => "requests_unreachable",
            Counter::RequestsUnroutable => "requests_unroutable",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::RelayHits => "relay_hits",
            Counter::RemappedRequests => "remapped_requests",
            Counter::RerouteExtraHops => "reroute_extra_hops",
            Counter::ColdRestartMisses => "cold_restart_misses",
            Counter::CacheWipes => "cache_wipes",
            Counter::ColdMarks => "cold_marks",
            Counter::ScheduleEpochs => "schedule_epochs",
            Counter::FaultEventsApplied => "fault_events_applied",
            Counter::PrefetchRounds => "prefetch_rounds",
            Counter::BfsRoutes => "bfs_routes",
            Counter::RequestsShed => "requests_shed",
            Counter::RetryAttempts => "retry_attempts",
            Counter::OriginFallbacks => "origin_fallbacks",
            Counter::RequestsDropped => "requests_dropped",
            Counter::RequestsPartitioned => "requests_partitioned",
            Counter::DelayedHits => "delayed_hits",
            Counter::CoalescedRequests => "coalesced_requests",
            Counter::FetchesRetired => "fetches_retired",
            Counter::NetFramesSent => "net_frames_sent",
            Counter::NetFramesResent => "net_frames_resent",
            Counter::NetTimeouts => "net_timeouts",
            Counter::NetReconnects => "net_reconnects",
            Counter::NetCircuitOpens => "net_circuit_opens",
            Counter::NetDuplicatesDropped => "net_duplicates_dropped",
            Counter::NetRequestsDegraded => "net_requests_degraded",
            Counter::VisibilityRefreshes => "visibility_refreshes",
        }
    }
}

/// Log₂-bucketed value distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Histo {
    /// End-to-end request latency, microseconds.
    LatencyUs,
    /// ISL hops per routed request (intra + inter plane).
    IslHops,
    /// Object size, bytes.
    ObjectBytes,
    /// Work-queue depth (entries per epoch run / per replay shard).
    QueueDepth,
    /// One-way user↔satellite propagation delay, microseconds.
    GslDelayUs,
    /// Hop count of each route found under a faulted view.
    BfsPathHops,
    /// Retry attempts consumed per request under overload (0 = admitted
    /// first try).
    RetryCount,
    /// Residual fetch wait charged to a delayed hit, in epochs.
    ResidualWaitEpochs,
    /// From the write that carried a frame to the first cumulative ack
    /// that covers it, microseconds. A shard acks once per receive pass
    /// (and after every four batches it applies), so this includes the
    /// time the frames ahead of it in that pass took to apply.
    NetAckRttUs,
    /// Encoded frame size on the wire, bytes.
    NetFrameBytes,
    /// Satellites in the candidate union at each visibility-window
    /// refresh — what the following epochs propagate and test.
    VisibilityCandidates,
}

impl Histo {
    /// Every histogram, in snapshot order.
    pub const ALL: [Histo; 11] = [
        Histo::LatencyUs,
        Histo::IslHops,
        Histo::ObjectBytes,
        Histo::QueueDepth,
        Histo::GslDelayUs,
        Histo::BfsPathHops,
        Histo::RetryCount,
        Histo::ResidualWaitEpochs,
        Histo::NetAckRttUs,
        Histo::NetFrameBytes,
        Histo::VisibilityCandidates,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Histo::LatencyUs => "latency_us",
            Histo::IslHops => "isl_hops",
            Histo::ObjectBytes => "object_bytes",
            Histo::QueueDepth => "queue_depth",
            Histo::GslDelayUs => "gsl_delay_us",
            Histo::BfsPathHops => "bfs_path_hops",
            Histo::RetryCount => "retry_count",
            Histo::ResidualWaitEpochs => "residual_wait_epochs",
            Histo::NetAckRttUs => "net_ack_rtt_us",
            Histo::NetFrameBytes => "net_frame_bytes",
            Histo::VisibilityCandidates => "visibility_candidates",
        }
    }
}

/// Pipeline stages timed by [`SpanTimer`](crate::SpanTimer)s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Orbital propagation (snapshot advance).
    Propagate,
    /// Visibility / top-k elevation selection.
    Visibility,
    /// Per-epoch link scheduling.
    Schedule,
    /// The parallel log builder's serial part: the cut of the trace
    /// into epoch-aligned chunks. (The name is kept from a sequential
    /// pre-scan that is gone; the discriminant is on the wire.)
    PreScan,
    /// Consistent-hash owner resolution + routing.
    ResolveOwner,
    /// Cache access (hit/miss + admission) per epoch.
    CacheAccess,
    /// One replayer worker shard (keyed by shard index, not epoch).
    ReplayShard,
    /// Deterministic merge of worker results.
    Merge,
}

impl Stage {
    /// Every stage, in snapshot order.
    pub const ALL: [Stage; 8] = [
        Stage::Propagate,
        Stage::Visibility,
        Stage::Schedule,
        Stage::PreScan,
        Stage::ResolveOwner,
        Stage::CacheAccess,
        Stage::ReplayShard,
        Stage::Merge,
    ];
}

/// Epoch-stamped fault-path events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Event {
    /// Satellites that went down at this epoch boundary.
    SatDown,
    /// Satellites that recovered (cold) at this epoch boundary.
    SatUp,
    /// ISL links cut at this epoch boundary.
    LinkDown,
    /// ISL links restored at this epoch boundary.
    LinkUp,
    /// Requests remapped off a dead owner during this epoch.
    Remap,
    /// Extra ISL hops of the requests detoured around failures during
    /// this epoch.
    Reroute,
    /// Misses charged to cold restarted caches during this epoch.
    ColdMiss,
    /// A corrupt/torn checkpoint was skipped in favor of an older one
    /// during resume (the epoch key is the skipped checkpoint's epoch).
    CheckpointRestoreFallback,
}

impl Event {
    /// Every event kind, in snapshot order.
    pub const ALL: [Event; 8] = [
        Event::SatDown,
        Event::SatUp,
        Event::LinkDown,
        Event::LinkUp,
        Event::Remap,
        Event::Reroute,
        Event::ColdMiss,
        Event::CheckpointRestoreFallback,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Event::SatDown => "sat_down",
            Event::SatUp => "sat_up",
            Event::LinkDown => "link_down",
            Event::LinkUp => "link_up",
            Event::Remap => "remap",
            Event::Reroute => "reroute",
            Event::ColdMiss => "cold_miss",
            Event::CheckpointRestoreFallback => "checkpoint_restore_fallback",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_arrays_are_dense_and_ordered() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{}", c.name());
        }
        for (i, h) in Histo::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i, "{}", h.name());
        }
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "{s:?}");
        }
        for (i, e) in Event::ALL.iter().enumerate() {
            assert_eq!(*e as usize, i, "{}", e.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for c in Counter::ALL {
            assert!(seen.insert(c.name()));
        }
        for h in Histo::ALL {
            assert!(seen.insert(h.name()));
        }
        for e in Event::ALL {
            assert!(seen.insert(e.name()));
        }
    }
}
