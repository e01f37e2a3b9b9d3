(** Datalog evaluation engine.

    Bottom-up, stratified evaluation with hash-indexed joins — the same
    strategy class as Souffle's interpreter, which the paper uses.
    Strata are the strongly connected components of the head-predicate
    dependency graph, evaluated in topological order; non-recursive
    strata run in a single pass and recursive ones iterate semi-naively
    to fixpoint.  Negation must be stratified.

    Aggregation is supported in the one stratified form the
    pessimistic-accounting rules need: declared {!aggregate}s
    materialize grouped integer sums over EDB relations into derived
    predicates before any rule stratum runs (see {!run}).  Unsupported
    (not needed by the cross-chain rules): aggregation over rule
    output, arithmetic in rule heads. *)

open Ast

exception Unsafe_rule of string
exception Not_stratifiable of string

module Relation : sig
  type tuple = int array
  (** A tuple of {!Ast.packed} constants — every cell interned/packed
      at load time, so joins, hashing and equality never touch a
      string.  Decode cells with {!Ast.unpack} /
      {!Ast.packed_to_string}. *)

  type t

  val create : unit -> t
  val size : t -> int
  val mem : t -> tuple -> bool

  val add : t -> tuple -> bool
  (** [true] iff the tuple is new.  Raises [Invalid_argument] on arity
      mismatch with previous tuples.  The tuple array is owned by the
      relation afterwards — do not mutate it. *)

  val iter : t -> (tuple -> unit) -> unit
  val to_list : t -> tuple list

  val clear : t -> unit
  (** Remove every tuple, preserving the arity and the registered index
      position-lists so indices are maintained incrementally by later
      [add]s instead of being rebuilt — the retraction primitive behind
      {!run_incremental}. *)

  val lookup : t -> int list -> int array -> tuple list
  (** [lookup t positions key]: all tuples whose projection on
      [positions] equals [key] (packed constants, one per position),
      via an on-demand hash index.  Empty [positions] returns
      everything. *)

  val ensure_index : t -> int list -> unit
  (** Build the hash index for [positions] if absent, without looking
      anything up.  Parallel evaluation pre-builds every index a
      stratum can need so worker domains share the relation strictly
      read-only. *)

  val nshards : int
  (** Number of hash shards per index (a structural constant — never a
      function of the worker count). *)

  val shard_of_key : int array -> int
  (** The shard a projected key lands in: a multiply–xor–shift mix of
      the packed cells, masked to [nshards].  Exposed so tests can pin
      the distribution quality on interned keys (packed ints are far
      from uniform in their low bits). *)
end

type db
(** A fact database, designed to persist across evaluation runs: EDB
    relations and their hash indices are kept, facts inserted since the
    last run are journaled as the next incremental delta, and the set
    of engine-derived predicates is tracked for retraction. *)

val create_db : unit -> db

val relation : db -> string -> Relation.t
(** The named relation, created empty on first use. *)

val add_fact : db -> string -> const list -> unit

val insert_fact : db -> string -> const list -> bool
(** Like {!add_fact} but returns [true] iff the fact was not already
    present — the building block for fresh-tuple deltas.  Constants are
    packed (strings interned) on the way in. *)

val insert_packed : db -> string -> Relation.tuple -> bool
(** {!insert_fact} for an already-packed tuple — the fact-loading hot
    path, no [const] boxing.  The array is owned by the database
    afterwards; do not mutate it. *)

val facts : db -> string -> const array list
(** The relation's tuples, decoded and {e sorted}: every output-facing
    consumer (dissection rows, alert streams, exports) reads facts
    through here, and sorting makes their order a function of the fact
    set rather than of hash-table traversal — which the interning
    scheme would otherwise tie to load order. *)

val packed_facts : db -> string -> Relation.tuple list
(** The raw packed tuples, in unspecified (hash traversal) order — for
    hot paths that only count, aggregate or re-pack. *)

val fact_count : db -> string -> int
val total_tuples : db -> int

val derived_predicates : db -> string list
(** Predicates populated by the engine in previous runs (sorted); all
    other relations are EDB and are never cleared by evaluation. *)

val dump_facts : db -> dir:string -> unit
(** Write every relation as a tab-separated [<pred>.facts] file in
    [dir] — Souffle's input format, enabling cross-validation against
    the original Souffle-based artifact.  [dir] and missing parents are
    created; tab, newline and backslash characters inside string values
    are backslash-escaped so one tuple is always exactly one line.
    Rows are sorted lexicographically, making the files byte-stable
    across insertion orders and worker counts.  Each file is written to
    a [.tmp] sibling and atomically renamed into place, so readers
    never observe a partially written dump. *)

type stats = {
  mutable rules_evaluated : int;
  mutable iterations : int;
  mutable tuples_derived : int;
}

type aggregate = {
  agg_pred : string;  (** derived head: [(group cells..., sum)] *)
  agg_source : string;  (** EDB relation the sum ranges over *)
  agg_group_by : int list;  (** source tuple positions forming the key *)
  agg_sum : int;  (** source tuple position summed (must hold ints) *)
}
(** A stratified aggregate: for every distinct projection of
    [agg_source] tuples onto [agg_group_by], derive one [agg_pred]
    tuple holding the group key followed by the integer sum of the
    [agg_sum] cells.  Sources must be EDB — neither a rule head nor
    another aggregate's head — so aggregation is computed once before
    the rule strata and the rules may join or negate the aggregate
    head exactly like any EDB relation.  {!prepare} (and so {!run})
    raises [Invalid_argument] on declarations violating this, and a run
    raises it on non-int sum cells or on positions beyond the source
    arity.  Groups are emitted
    in ascending key order by a sequential pass, so the derived
    relation is bit-identical at any [ndomains] and across the
    scratch/incremental paths. *)

val recommended_gc_setup : unit -> unit
(** Idempotently enlarge the minor heap and relax the GC space/time
    trade-off.  Rule evaluation over hundreds of thousands of tuples is
    allocation-bound; this roughly halves wall time at the paper's full
    scale.  Called automatically by [Xcw_core.Detector.run] and the
    monitor. *)

type plan
(** A program made ready to run, once: its rules checked for safety
    and its aggregates against it, the program stratified, every
    stratum's rules compiled, each stratum's head predicates and the
    predicates it reads positively and under negation listed, and the
    rule and stratum instruments resolved.  A plan is run against any
    number of databases, one at a time; a monitor keeps one for as
    long as it lives. *)

val prepare :
  ?metrics:Xcw_obs.Metrics.t -> ?aggregates:aggregate list -> program -> plan
(** Plan [program] with its [aggregates] (default none).  Raises
    {!Unsafe_rule}, {!Not_stratifiable} or [Invalid_argument] (a bad
    aggregate) as {!run} does.  The plan's runs record into [metrics]
    (default: the process-wide registry), whose instruments are
    registered here; with a disabled registry nothing is registered. *)

val run :
  ?naive:bool ->
  ?metrics:Xcw_obs.Metrics.t ->
  ?ndomains:int ->
  ?aggregates:aggregate list ->
  db ->
  program ->
  stats
(** Evaluate all rules to fixpoint, adding derived tuples to [db] in
    place: {!prepare}, then a full run of the plan.  [naive] disables
    semi-naive deltas in recursive strata (used by the ablation bench).
    [aggregates] (default none) are recomputed from their EDB sources
    before the first stratum.

    Each stratum runs one semi-naive round loop, and each round hands
    its (rule, delta) occurrences to one of two passes, chosen by
    [ndomains].  With [ndomains = 1] (the default) the inline pass
    evaluates them in turn on the calling domain, inserting each head
    tuple as it is derived; no domain is spawned.  With more, the
    pooled pass evaluates them on a shared {!Xcw_par.Pool} of that many
    domains: every occurrence's driving literal is split into
    contiguous candidate chunks, workers join against the shared
    read-only indices (pre-built before fan-out), and chunk derivations
    are merged in submission order.  For non-recursive strata — the
    whole shipped cross-chain program — the pooled pass reproduces the
    inline derivation, insertion order included, bit-for-bit at any
    worker count; in recursive strata both passes reach the identical
    tuple sets and derived-tuple counts, though relation iteration
    order (and [iterations]) may differ.  Raises [Invalid_argument] if
    [ndomains < 1].

    Evaluation records into [metrics] (default: the process-wide
    registry): per-rule wall time in the [xcw_datalog_rule_seconds]
    histogram (labelled [rule="NN:pred"], [NN] the rule's position in
    the program), per-stratum time in [xcw_datalog_stratum_seconds],
    and [xcw_datalog_tuples_derived_total].  Parallel runs additionally
    record [xcw_datalog_parallel_tasks_total], the per-stratum
    [xcw_datalog_parallel_fanout] gauge, and the pool's own
    [xcw_par_*] series.  Each stratum also opens a ["datalog.stratum"]
    span on the default tracer.  With a disabled registry no timing
    calls are made at all. *)

type changes
(** What one {!run_incremental} changed in its database, relation by
    relation, since the previous run on it.  After an incremental run
    it is exact: the tuples each relation gained (journaled insertions
    included) and whether it lost any.  A full run lists no tuples; it
    counts every relation it evaluated — each aggregate and rule head
    of the plan — as changed. *)

val full_run : changes -> bool
(** The run evaluated the whole program (a fresh database). *)

val changed : changes -> string -> bool
(** The relation gained or lost a tuple; after a full run, the run
    evaluated it. *)

val added : changes -> string -> Relation.tuple list
(** The tuples the relation gained, in no particular order; [[]] after
    a full run. *)

val lost : changes -> string -> bool
(** The relation lost a tuple; after a full run, the same as
    {!changed}. *)

val run_incremental : ?ndomains:int -> plan -> db -> stats * changes
(** Bring a previously evaluated [db] up to date after fact
    insertions, treating the tuples added since the last run as the
    initial semi-naive delta, and return what changed.  The plan's
    aggregates whose sources gained journaled tuples are recomputed in
    place first, their diff feeding the strata as insertions or
    retractions.  Strata whose inputs did not change are skipped
    entirely; strata that depend on changed predicates only positively
    run insertion-only semi-naive evaluation; strata that negate a
    changed predicate, or read one that lost a tuple (the
    non-monotonic anomaly relations), are cleared and re-derived over
    the current database and diffed against their tuples before.  EDB
    relations and their hash indices are preserved throughout.  [plan]
    must be the one [db] was evaluated with before; the first call on a
    fresh database is a full run ({!run}'s, with [naive = false]).

    What a run costs: a run that changes nothing checks each stratum's
    inputs against the delta and evaluates nothing.  Otherwise the cost
    does not follow the delta alone.  A recomputed stratum re-derives
    its relations from the whole database and diffs them against their
    tuples before (8 negation strata on a Nomad stream poll).  A
    semi-naive occurrence restricts one body literal to the delta and
    scans each positive literal left of it in full.

    [ndomains] chooses the inline or the pooled pass for the
    semi-naive and recompute strata exactly as in {!run}, with the same
    determinism guarantees.  Beyond the {!run} instruments, incremental
    runs record the journaled delta size ([xcw_datalog_delta_tuples]),
    how each stratum was handled ([xcw_datalog_strata_skipped_total] /
    [_seminaive_total] / [_recomputed_total]) and how many previously
    derived tuples the retraction path withdrew
    ([xcw_datalog_retractions_total]). *)
