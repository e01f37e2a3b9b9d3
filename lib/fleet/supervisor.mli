(** Fleet-scale multi-bridge supervision with per-bridge fault
    isolation.

    A supervisor owns N independent bridge {e lanes} — each a
    {!Xcw_core.Monitor} over its own pair of simulated chains — and
    drives them in fleet poll {e rounds}: every round each runnable
    lane advances toward the cursors its schedule names for that round
    (clamped by the per-round poll budget), the lane monitors run
    concurrently over a shared {!Xcw_par.Pool} of domains, and their
    alerts merge into one {!Bus} in a fixed order (round, then lane
    index, then the lane's own order), so fleet output is identical at
    any worker count and across runs with the same seeds.

    Fault isolation is structural: lanes share nothing but the domain
    pool and the metrics registry.  A lane whose poll raises, or that
    sits unsynced without making progress (pending receipts not
    shrinking while its schedule stands still — the signature of a
    quorum that refuses to vouch, a dead tracer, or a reorg storm the
    monitor cannot get past), accumulates failures; at
    [cb_failure_threshold] consecutive failures the circuit breaker
    {e parks} the lane for a term of rounds that doubles on every
    consecutive trip (capped at [cb_max_term]).  A parked lane costs
    the fleet nothing; when its term expires it runs one probation
    probe — success rejoins the fleet and resets the backoff, another
    failure re-parks immediately at the doubled term.  The rest of the
    fleet keeps its cadence throughout: each clean lane's alert stream
    is byte-identical to running that lane's monitor alone (the bench's
    checked differential).

    Per-round work is bounded per lane by [poll_budget]: a lane's
    cursors advance at most that many blocks per side per round, so one
    bridge's backlog (catch-up after a park, a reorg rewind, a block
    storm) is amortized across rounds instead of monopolizing a round
    for the whole fleet. *)

module Monitor = Xcw_core.Monitor
module Detector = Xcw_core.Detector
module Metrics = Xcw_obs.Metrics

type lane_spec = {
  l_name : string;  (** unique lane name; bus origin and metric label *)
  l_input : Detector.input;
  l_cursors : int -> int * int;
      (** fleet round (1-based) -> (source, target) block cursors the
          lane should have reached by that round; must be monotone in
          the round.  Exceptions are caught and count as lane failures
          — a broken schedule parks its lane, not the fleet. *)
}

(** Circuit breaker configuration. *)
type breaker = {
  cb_failure_threshold : int;
      (** consecutive failing polls before the lane is parked *)
  cb_base_term : int;  (** rounds parked on the first trip *)
  cb_max_term : int;  (** backoff doubling cap *)
}

val default_breaker : breaker
(** threshold 3, base term 4, max term 64. *)

type lane_state =
  | Active  (** last poll synced *)
  | Degraded  (** behind but progressing (or not yet at threshold) *)
  | Parked of { until : int; term : int }
      (** skipped until round [until], then one probation probe *)
  | Probation  (** probe poll ran this round; next outcome decides *)

type lane_health = {
  lh_index : int;
  lh_name : string;
  lh_state : lane_state;
  lh_polls : int;  (** monitor polls actually executed *)
  lh_alerts : int;  (** raw alerts raised by this lane *)
  lh_failures : int;  (** current consecutive-failure count *)
  lh_trips : int;  (** times parked *)
  lh_exceptions : int;  (** polls that raised *)
  lh_lag : int;
      (** blocks of cursor backlog vs the lane's latest schedule target
          plus receipts the monitor still owes within its cursors *)
  lh_monitor : Monitor.health option;  (** [None] before the first poll *)
  lh_last_error : string option;
}

type health = {
  fh_rounds : int;
  fh_parked : int;  (** lanes currently parked *)
  fh_emitted : int;  (** bus emissions *)
  fh_collapsed : int;  (** bus cross-bridge collapses *)
  fh_lag : int;  (** summed lane lag *)
  fh_lanes : lane_health list;  (** in lane-index order *)
}

type t

val create :
  ?ndomains:int ->
  ?breaker:breaker ->
  ?dedup_window:int ->
  ?poll_budget:int ->
  ?metrics:Metrics.t ->
  ?state_dir:string ->
  ?crash:Xcw_store.Crash_plan.t ->
  ?snapshot_every:int ->
  lane_spec list ->
  t
(** [ndomains] (default 1) is the fleet-level worker count; lane polls
    of one round fan out over {!Xcw_par.Pool.get}[ ~ndomains].  Raises
    [Invalid_argument] if the lane list is empty, lane names collide,
    or fleet-level parallelism is combined with lanes that themselves
    request [i_ndomains > 1] — the domain pools do not nest; pick one
    level.  [poll_budget] (default unbounded) caps per-side cursor
    advancement per round.  [dedup_window] is forwarded to
    {!Bus.create}.

    Fleet instruments recorded into [metrics] (default
    {!Metrics.default}): per-lane [xcw_fleet_poll_seconds{bridge}]
    histograms and [xcw_fleet_lane_polls_total{bridge}] /
    [xcw_fleet_lane_alerts_total{bridge}] counters, fleet-wide
    [xcw_fleet_rounds_total] / [xcw_fleet_parks_total] counters, the
    [xcw_fleet_round_seconds] histogram and [xcw_fleet_lag] /
    [xcw_fleet_parked] gauges; every round opens a ["fleet.round"]
    span.

    [state_dir] makes the fleet durable (PR 9): each lane's monitor
    checkpoints into [state_dir/<lane-name>], compacting when its store
    says so ({!Xcw_store.Store.compaction_due}), and the supervisor
    itself appends one self-contained record per round (breaker and
    cursor state, the bus dedup window and counters, the round's
    emissions) to [state_dir/_fleet], snapshotting every
    [snapshot_every] rounds (default 8).  [snapshot_every] paces only
    [_fleet]: each of its records restates the whole fleet state, so the
    lanes' size rule would compact it almost every round.  Creation
    recovers whatever the directory holds and resumes at the last
    durable round; re-running the crashed round merges each lane's
    durable alert tail back into the bus in lane order, so the emission
    stream (after the consumer dedups {!replayed} by [fa_seq]) is
    byte-identical to an uninterrupted run.
    A damaged [snapshot.bin] is never skipped: in [state_dir/_fleet]
    creation raises {!Xcw_store.Store.Damaged_snapshot}; in a lane's
    directory the lane's monitor cannot be created, so each of its
    polls fails through the breaker with that error while the other
    lanes run on.
    [crash] threads a deterministic crash-injection plan through every
    store write of the fleet — a {!Xcw_store.Crash_plan.Crashed} escape
    aborts the poll like a process death instead of tripping the lane
    breaker. *)

val poll : t -> Bus.fleet_alert list
(** Run one fleet round; returns the alerts the bus emitted this round
    (collapsed duplicates are annotations, not emissions). *)

val run : t -> rounds:int -> Bus.fleet_alert list
(** [rounds] successive {!poll}s, emissions concatenated. *)

val health : t -> health
val rounds : t -> int
val bus : t -> Bus.t

val alerts : t -> Bus.fleet_alert list
(** Everything the bus emitted so far, in sequence order.  After a
    restart this covers only the current process — the durable
    crash-boundary tail is {!replayed}. *)

val replayed : t -> Bus.fleet_alert list
(** The emissions of the last durable round.  After recovery, the tail
    a consumer may have missed: re-deliver and dedup by [fa_seq] (a
    round that crashed before its record committed simply re-runs).
    Empty without [state_dir]. *)

val lane_alerts : t -> int -> Monitor.alert list
(** Lane [i]'s raw alert stream in emission order — before bus dedup;
    the solo-vs-fleet isolation differential compares exactly this. *)

val lane_monitor : t -> int -> Monitor.t option
(** Lane [i]'s monitor, once its first poll created it. *)

val lane_count : t -> int
