(** Durable checkpoint/WAL store.

    A store is a directory holding [wal.log] (append-only records, each
    framed as [len:u64][index:u64][crc32:u32][payload]) and
    [snapshot.bin] ([XCWSNAP2] magic, last covered record index,
    payload length, CRC, payload).  Each CRC ({!Codec.crc32}) covers
    the two header words before it as well as the payload, so a flipped
    index or length is caught like a flipped payload byte; a frame says
    so by the top bit of its length word.  Files written before the
    header was covered ([XCWSNAP1], unmarked frames) still load, under
    the payload-only check they were written with; the first compaction
    rewrites the snapshot and truncates the old frames away.

    Records carry monotone indices; a snapshot commits via write-temp +
    fsync + rename and records the highest index it covers, so the WAL
    truncation that follows does not need to be atomic with the rename
    — recovery simply skips WAL records whose index the snapshot
    already covers.

    {b The WAL is the history; a snapshot is a compaction.}  A snapshot
    is due ({!compaction_due}) once the WAL written since the last one
    is at least as large as that snapshot, the rule of Raft's log
    compaction and of LSM trees: compact when the log has grown by a
    constant factor of the state.  When the records only extend the
    state, snapshot [k] is at most snapshot [k-1] plus the WAL written
    since it, and that WAL is at least snapshot [k-1]; so each snapshot
    is at most twice the WAL written since the one before, and all
    snapshots together come to at most twice the WAL's bytes plus the
    first.  Recovery reads one snapshot plus a WAL smaller than it, or
    larger by the one record that made a compaction due.  With no
    snapshot the threshold is 0, so the first record is compacted at
    once.  A WAL left uncut by a crash after the snapshot's rename
    counts towards the next compaction.

    On [open_], recovery loads the snapshot (a leftover temp file from
    an aborted snapshot is discarded), scans the WAL, truncates any
    torn or CRC-corrupt tail, and returns the surviving payloads.  A
    damaged [snapshot.bin] (short, wrong magic, wrong length or CRC
    mismatch) is refused with {!Damaged_snapshot}, not treated as
    absent: the WAL records it covered were truncated when it was
    written, so resuming without it would silently drop that history.
    No crash point leaves one behind, since a snapshot only appears by
    rename after its temp file is fsynced.

    [append] returns only after the record is fsynced: a record is
    either durable or (on a torn tail) invisible after recovery, never
    half-applied. *)

type t

exception Damaged_snapshot of string
(** The message names the file and what is wrong with it. *)

type recovered = {
  r_snapshot : string option;  (** the snapshot payload, if any *)
  r_records : (int * string) list;
      (** WAL payloads not covered by the snapshot, ascending index *)
  r_truncated_bytes : int;  (** torn/corrupt WAL tail bytes dropped *)
}

val open_ : ?crash:Crash_plan.t -> dir:string -> unit -> t * recovered
(** Creates [dir] if needed.  [crash] injects deterministic failures at
    every subsequent write opportunity (see {!Crash_plan}).  Raises
    {!Damaged_snapshot} if [dir/snapshot.bin] exists but is damaged. *)

val append : t -> string -> int
(** Append one record; returns its index.  Durable once it returns. *)

val snapshot : t -> string list -> unit
(** [snapshot t pieces] atomically replaces the snapshot with the
    payload [String.concat "" pieces], covering every record appended
    so far, then truncates the WAL.  The pieces are streamed to the
    temp file and their CRC computed piece by piece, so the payload is
    never concatenated in memory. *)

val next_index : t -> int

val wal_bytes : t -> int
(** Current WAL file length: the bytes written since the last
    snapshot, plus any its truncation missed. *)

val snapshot_bytes : t -> int
(** Length of [snapshot.bin] as last written, or as found by [open_];
    0 when there is none. *)

val compaction_due : t -> bool
(** [wal_bytes t >= snapshot_bytes t]: the caller should {!snapshot}
    now (see the compaction rule above). *)

val appended_bytes : t -> int
(** Lifetime bytes appended (for the recovery bench). *)

val close : t -> unit
(** Safe even after a {!Crash_plan.Crashed} escape: the store flushes
    before every crash point, so closing never writes new bytes. *)
