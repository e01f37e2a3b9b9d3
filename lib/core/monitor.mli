(** Streaming anomaly monitoring.

    The paper's central motivation (Figure 1) is observability: the
    Ronin attack went unnoticed for six days.  A monitor is fed block
    cursors as chains advance, decodes only receipts it has not seen
    (decoding dominates cost — Table 2), re-evaluates the rules, and
    emits alerts for anomalies new since the previous poll.

    Evaluation is incremental by default: the monitor plans its
    program once ({!Xcw_datalog.Engine.prepare}), one persistent Datalog
    database lives inside it across polls, fresh facts seed the
    engine's semi-naive delta ({!Xcw_datalog.Engine.run_incremental}),
    and the non-monotonic anomaly relations (an unmatched deposit
    becomes matched when its completion lands) are retracted and
    re-derived in place — strata untouched by the new facts do no
    work.  The engine returns what each run changed.  A synced poll
    runs the alert scan only if a relation of
    {!Dissect.alert_relations} changed, or an entry carrying decode
    errors came or went, since the last scan that ran; changes seen by
    unsynced polls wait for the next synced one, and the first poll on
    a fresh database always scans.

    The monitor's own bookkeeping (receipt index, fact counts, decode
    errors) costs O(new receipts) per poll, and a poll that decodes
    nothing evaluates nothing and scans only to catch up on what
    unsynced polls loaded.  What a poll that loads facts
    still pays per unit of history: the negation strata the engine
    recomputes and diffs from scratch (8 per Nomad stream poll), the
    full scans of the literals left of each semi-naive delta and, when
    a declared relation changed, a scan that reads and sorts every
    anomaly relation whole.  With a {!Checkpoint}, a poll writes one
    fsynced WAL record of what it decoded, and the occasional poll also
    compacts the WAL into a snapshot of the whole decoded state; that
    happens once the WAL has grown as large as the last snapshot, so
    the snapshot bytes a long run writes stay within twice its WAL
    bytes (see {!Xcw_store.Store}).  [create ~incremental:false]
    restores the from-scratch rebuild per poll, for differential
    testing and benchmarking.

    The database is built one way only: the config facts plus every
    decoded entry's facts, evaluated from scratch by the next poll.
    That happens at creation, after recovery and after a reorg rewind,
    so the first poll after a restart evaluates the whole program — at
    Nomad scale 0.05, 32–86 ms over ten restarts on a 2-vCPU host,
    where a poll at unchanged heads evaluates and scans nothing (about
    0.03 ms at seed 42 on the same host) — and a rule added since the
    snapshot was written sees the whole history.

    Under RPC fault injection ({!Xcw_rpc.Fault} plans in the
    {!Detector.input}) the monitor degrades instead of raising: the
    receipt cursor only advances past fully-fetched data (failed
    receipts stay pending and are retried next poll — no silent gaps),
    failed polls surface through {!health}, catch-up happens on
    recovery, and a reorg signal rewinds the cursor and rebuilds the
    database from the surviving entries.  Alerts are only
    emitted from synced polls, so a fault-free run and any
    transient-fault run produce the same alerts. *)

type alert = {
  al_seq : int;
      (** monotone per-monitor sequence number (from 1); survives
          restarts, so consumers dedup replayed alerts by keeping a
          high-water mark *)
  al_anomaly : Report.anomaly;
  al_rule : string;  (** the rule row that flagged it *)
  al_detected_at : int * int;  (** (source block, target block) cursor *)
}

(** Durable checkpoint handle (PR 9).

    A checkpoint directory holds an append-only CRC-framed WAL with one
    record per poll (cursor advance, decoded-entry delta as packed
    tuples, emitted alerts with their sequence numbers) plus atomic
    snapshots (write-temp + fsync + rename, then WAL truncation) of what
    the monitor decoded: entries, cursors, the alert-dedup set and the
    sequence counter.  Nothing derived is stored.  A poll snapshots when
    the store says a compaction is due
    ({!Xcw_store.Store.compaction_due}: the WAL is at least as large as
    the last snapshot, so the first poll snapshots at once).
    [Monitor.create ~checkpoint] recovers: the snapshot, then the WAL
    tail replayed over it, torn or corrupt trailing records truncated.
    The monitor resumes with cursors, entries, alert dedup set and
    sequence counter exactly as they were at the last durable record,
    and rebuilds its database from the entries; its first poll evaluates
    the whole program under the rules it runs now.  A damaged
    [snapshot.bin] is refused: opening the checkpoint raises
    {!Xcw_store.Store.Damaged_snapshot}.  A handle is consumed by the
    monitor it is passed to — reusing it raises [Invalid_argument]. *)
module Checkpoint : sig
  type t

  val open_ : ?crash:Xcw_store.Crash_plan.t -> dir:string -> unit -> t
  (** [crash] threads a deterministic crash-injection plan into every
      write point.  The monitor counts what its checkpoint writes in
      its registry: [xcw_monitor_checkpoint_bytes_total] with
      [kind="wal"] (framed WAL bytes) and [kind="snapshot"], and
      [xcw_monitor_snapshots_total].  Raises
      {!Xcw_store.Store.Damaged_snapshot} when [dir] holds a damaged
      [snapshot.bin]. *)

  val store : t -> Xcw_store.Store.t
  (** The underlying store (WAL sizes for benches and tests). *)

  val close : t -> unit

  (** Alert wire codec, shared with the fleet supervisor's own store. *)

  val put_alert : Buffer.t -> alert -> unit
  val get_alert : Xcw_store.Codec.R.t -> alert
end

(** Receipt cursor: which receipts of a chain's list have been decoded.
    A plain count of receipts seen so far silently skips — forever —
    any receipt that precedes an already-decoded one in list order but
    lies above the block cursor; this tracks the fully-decoded prefix
    plus the exact set of decoded indices beyond it.  Exposed for
    regression testing with out-of-order receipt lists and reorg
    rewinds. *)
module Cursor : sig
  type t

  val create : unit -> t

  val take : t -> block_of:(int -> int) -> len:int -> up_to:int -> int list
  (** [take t ~block_of ~len ~up_to] returns the indices (ascending,
      within [0, len)]) not yet decoded whose block number
      ([block_of i]) is [<= up_to], and marks them decoded. *)

  val candidates :
    t -> block_of:(int -> int) -> len:int -> up_to:int -> int list
  (** Like {!take} but without marking: the indices a poll still needs
      to decode. *)

  val mark : t -> int -> unit
  (** Mark one index decoded (idempotent). *)

  val is_decoded : t -> int -> bool

  val rewind : t -> block_of:(int -> int) -> above:int -> unit
  (** Forget every decoded index whose block is above [above] — the
      reorg rewind; those receipts will be decoded again. *)

  val decoded_count : t -> int
end

(** Degradation status of the monitor under RPC faults. *)
type health = {
  h_synced : bool;
      (** every receipt within the requested cursors is decoded *)
  h_pending_source : int;  (** receipts awaiting (re)decode on S *)
  h_pending_target : int;
  h_trace_gaps : int;
      (** receipts decoded without the call tracer (internal transfers
          unobserved; see {!Facts.r_trace_gap}) *)
  h_give_ups : int;  (** client requests that exhausted retries *)
  h_reorgs : int;  (** reorg signals handled *)
  h_last_error : string option;  (** most recent RPC failure seen *)
}

type t

val create :
  ?incremental:bool ->
  ?metrics:Xcw_obs.Metrics.t ->
  ?checkpoint:Checkpoint.t ->
  Detector.input ->
  t
(** [incremental] defaults to [true].

    [checkpoint] makes every poll durable: the poll's state delta and
    alerts are fsynced to the checkpoint's WAL before [poll] returns
    them, and creation first recovers whatever the directory already
    holds (see {!Checkpoint}).  After a crash, consult {!replayed} for
    the alerts of the last durable poll and dedup by [al_seq].

    The monitor and everything it builds (RPC nodes, clients, the
    Datalog engine) record into [metrics] — default: the process-wide
    {!Xcw_obs.Metrics.default} registry.  Monitor-level instruments:
    [xcw_monitor_polls_total], [xcw_monitor_alerts_total],
    [xcw_monitor_reorgs_total], the [xcw_monitor_poll_seconds]
    histogram, [xcw_monitor_alert_scans_total{outcome="run"|"skipped"}]
    (per synced poll: whether the alert scan ran or nothing it reads
    had changed; unsynced polls count in neither), and gauges
    [xcw_monitor_synced] (1/0),
    [xcw_monitor_pending{side="source"|"target"}] (cursor lag in
    receipts) and [xcw_monitor_facts_cached].  Each poll also opens a
    ["monitor.poll"] span on the default tracer. *)

val poll : t -> source_block:int -> target_block:int -> alert list
(** Advance to the given block cursors; returns alerts for anomalies
    that appeared since the previous poll (each anomaly alerts once).
    Under fault injection a poll may return nothing because a side is
    behind — consult {!health}; alerts arrive once the monitor catches
    up. *)

val health : t -> health

val pools : t -> (Xcw_rpc.Pool.t * Xcw_rpc.Pool.t) option
(** The (source, target) quorum pools when the input requested
    [i_endpoints > 1] — their endpoints expose per-node ground truth
    ({!Xcw_rpc.Rpc.byzantine_injections}) for tests. *)

val pool_health : t -> (Xcw_rpc.Pool.health * Xcw_rpc.Pool.health) option
(** Quorum-read reports for the (source, target) pools: endpoint trust
    and quarantine states, with [ph_suspects] naming the endpoints
    caught lying.  A degraded quorum shows up as refusals here and as
    pending receipts in {!health} — the cursor never advances past
    data the pool would not vouch for, so alerting stays synced-only
    exactly as under PR 2's fail-stop degradation. *)

val last_report : t -> Report.t option
(** The full report as of the latest poll (anomalies that have since
    been retracted by later matches are absent from it), including the
    cctx dataset and attack tables.  A poll does not build it: each
    call dissects the database the latest poll evaluated, which costs
    time proportional to the history.  When [health] reports unsynced,
    the report reflects a partial cross-chain view.

    [None] before the first poll of this process (recovery restores
    the state but evaluates nothing), and after a poll that raised
    before its rule evaluation completed — its database is
    half-updated — until the next poll completes.  A poll that raises
    later (e.g. in its WAL commit) leaves its own evaluated state. *)

val polls : t -> int

val replayed : t -> alert list
(** The alerts of the most recent durable WAL record.  After recovery
    this is the tail a consumer may have missed: re-deliver and dedup
    by [al_seq].  Empty for monitors without a checkpoint. *)

val alert_seq : t -> int
(** Last alert sequence number assigned (0 before any alert). *)

val rpc_seconds : t -> float
(** Simulated RPC seconds (node latency plus retry backoff) accrued by
    the monitor's two side clients — the extraction cost a real
    deployment pays in wall time.  Accumulated by the latency model,
    never slept; [0.] until the first poll fetches something. *)

val facts_cached : t -> int
(** [List.length (cached_facts t)], kept as a count. *)

val cached_facts : t -> Facts.t list
(** Every fact decoded so far (source side first, receipt order) —
    lets tests state the no-silent-gap invariant exactly. *)

val metrics_snapshot : t -> Xcw_obs.Metrics.metric list
(** Snapshot of the monitor's registry — every instrument recorded by
    this monitor's components (and, when the monitor uses the default
    registry, by anything else sharing it). *)
