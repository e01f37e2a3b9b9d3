(** Deterministic crash injection for the durable store.

    A plan is a single counter shared by every {!Store.t} it is passed
    to (lane WALs and the fleet WAL alike), so "the k-th write
    opportunity of the whole process" is well defined.  [at k] raises
    {!Crashed} at exactly that opportunity, after first applying the
    point's partial on-disk effect (e.g. a torn record prefix) — the
    in-memory store must then be discarded, mimicking process death.
    The crash sweep runs a plan-free pass to count opportunities, then
    one pass per [k] in [1..ops]; seeded sweeps mirror [Fault.plan]. *)

type point =
  | Wal_torn_record  (** crash mid-record: a torn prefix reaches disk *)
  | Wal_pre_sync  (** record fully written, crash before fsync *)
  | Wal_post_sync  (** record durable, crash before append returns *)
  | Snap_torn_temp  (** crash mid-write of the snapshot temp file *)
  | Snap_pre_rename  (** temp complete + fsynced, crash before rename *)
  | Snap_pre_truncate  (** snapshot committed, crash before WAL truncate *)

val point_name : point -> string

exception Crashed of point * int
(** [(point, op)] — which write opportunity fired and where. *)

type t

val none : unit -> t
(** Counts write opportunities but never crashes.  Used by the sweep's
    baseline pass to size the [1..ops] crash space. *)

val at : int -> t
(** Crash at the k-th write opportunity (1-based; clamped to >= 1). *)

val ops : t -> int
(** Write opportunities seen so far. *)

val counts : t -> (point * int) list
(** Write opportunities seen so far of each kind, every kind listed
    once in declaration order — how a sweep checks that its crash
    space reaches every kind. *)

val step : t -> point -> partial:(unit -> unit) -> unit
(** Internal hook called by the store on every write opportunity. *)
