let snap_magic = "XCWSNAP2"
let header_len = 20 (* len:u64 + index:u64 + crc:u32 *)

(* Before [XCWSNAP2] and the length word's top bit, a CRC covered the
   payload alone, so a flipped index went unnoticed.  Files in that
   format still load under that check; the first compaction rewrites
   the snapshot and truncates every old frame. *)
let snap_magic_v1 = "XCWSNAP1"
let covered_bit = Int64.min_int

(* The CRC a snapshot or frame must carry: over the 16 bytes of
   index and length fields at [fields], then the payload at [body];
   over the payload alone for the old format. *)
let expected_crc ~covered raw ~fields ~body ~len =
  let crc = if covered then Codec.crc32 ~off:fields ~len:16 raw else 0l in
  Codec.crc32 ~crc ~off:body ~len raw

type t = {
  t_dir : string;
  t_wal : string;
  t_snap : string;
  t_crash : Crash_plan.t;
  mutable t_chan : out_channel;
  mutable t_next : int;
  mutable t_wal_bytes : int;
  mutable t_snap_bytes : int;
  mutable t_appended : int;
  mutable t_closed : bool;
}

type recovered = {
  r_snapshot : string option;
  r_records : (int * string) list;
  r_truncated_bytes : int;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Best-effort: make a rename/creation durable by syncing the directory. *)
let sync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

exception Damaged_snapshot of string

(* A snapshot is only ever published whole, by rename, and the WAL it
   covers is truncated after it; so a snapshot that fails its checks
   cannot be dropped without dropping that history with it. *)
let load_snapshot path =
  if not (Sys.file_exists path) then None
  else
    let raw = read_file path in
    let damaged why =
      raise
        (Damaged_snapshot (Printf.sprintf "%s: damaged snapshot (%s)" path why))
    in
    let m = String.length snap_magic in
    let covered = String.starts_with ~prefix:snap_magic raw in
    if String.length raw < m + header_len then damaged "shorter than its header"
    else if not (covered || String.starts_with ~prefix:snap_magic_v1 raw) then
      damaged "bad magic"
    else
      let last = Int64.to_int (String.get_int64_le raw m) in
      let len = Int64.to_int (String.get_int64_le raw (m + 8)) in
      let crc = String.get_int32_le raw (m + 16) in
      if len <> String.length raw - m - header_len then
        damaged "length mismatch"
      else if
        expected_crc ~covered raw ~fields:m ~body:(m + header_len) ~len
        <> crc
      then damaged "CRC mismatch"
      else Some (last, String.sub raw (m + header_len) len, String.length raw)

(* Scan the WAL, returning valid records and the offset of the first
   torn or corrupt byte (= the length to truncate the file to). *)
let scan_wal raw =
  let total = String.length raw in
  let records = ref [] in
  let pos = ref 0 in
  let stop = ref false in
  while (not !stop) && !pos + header_len <= total do
    let word = String.get_int64_le raw !pos in
    let len = Int64.to_int (Int64.logand word Int64.max_int) in
    let index = Int64.to_int (String.get_int64_le raw (!pos + 8)) in
    let crc = String.get_int32_le raw (!pos + 16) in
    if len < 0 || index < 0 || len > total - !pos - header_len then
      stop := true
    else if
      expected_crc
        ~covered:(Int64.logand word covered_bit <> 0L)
        raw ~fields:!pos ~body:(!pos + header_len) ~len
      <> crc
    then stop := true
    else begin
      records := (index, String.sub raw (!pos + header_len) len) :: !records;
      pos := !pos + header_len + len
    end
  done;
  (List.rev !records, !pos)

let open_ ?(crash = Crash_plan.none ()) ~dir () =
  mkdir_p dir;
  let wal = Filename.concat dir "wal.log" in
  let snap = Filename.concat dir "snapshot.bin" in
  (* A leftover temp file is an aborted snapshot: discard it. *)
  let tmp = snap ^ ".tmp" in
  if Sys.file_exists tmp then Sys.remove tmp;
  let snapshot = load_snapshot snap in
  let snap_last, snap_bytes =
    match snapshot with Some (last, _, n) -> (last, n) | None -> (0, 0)
  in
  let raw = if Sys.file_exists wal then read_file wal else "" in
  let all_records, valid_len = scan_wal raw in
  if valid_len < String.length raw then begin
    let fd = Unix.openfile wal [ Unix.O_WRONLY ] 0o644 in
    Unix.ftruncate fd valid_len;
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd
  end;
  let records = List.filter (fun (i, _) -> i > snap_last) all_records in
  let last_index =
    List.fold_left (fun acc (i, _) -> max acc i) snap_last all_records
  in
  let chan =
    open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644 wal
  in
  let t =
    {
      t_dir = dir;
      t_wal = wal;
      t_snap = snap;
      t_crash = crash;
      t_chan = chan;
      t_next = last_index + 1;
      t_wal_bytes = valid_len;
      t_snap_bytes = snap_bytes;
      t_appended = 0;
      t_closed = false;
    }
  in
  ( t,
    {
      r_snapshot = Option.map (fun (_, payload, _) -> payload) snapshot;
      r_records = records;
      r_truncated_bytes = String.length raw - valid_len;
    } )

let frame index payload =
  let b = Buffer.create (header_len + String.length payload) in
  Buffer.add_int64_le b
    (Int64.logor covered_bit (Int64.of_int (String.length payload)));
  Buffer.add_int64_le b (Int64.of_int index);
  Buffer.add_int32_le b (Codec.crc32_pieces [ Buffer.contents b; payload ]);
  Buffer.add_string b payload;
  Buffer.contents b

let append t payload =
  assert (not t.t_closed);
  let index = t.t_next in
  let fr = frame index payload in
  let n = String.length fr in
  Crash_plan.step t.t_crash Crash_plan.Wal_torn_record ~partial:(fun () ->
      (* A torn write: a strict prefix of the frame reaches disk. *)
      output_substring t.t_chan fr 0 (max 1 (n / 2));
      flush t.t_chan);
  output_string t.t_chan fr;
  flush t.t_chan;
  Crash_plan.step t.t_crash Crash_plan.Wal_pre_sync ~partial:ignore;
  (try Unix.fsync (Unix.descr_of_out_channel t.t_chan)
   with Unix.Unix_error _ -> ());
  Crash_plan.step t.t_crash Crash_plan.Wal_post_sync ~partial:ignore;
  t.t_next <- index + 1;
  t.t_wal_bytes <- t.t_wal_bytes + n;
  t.t_appended <- t.t_appended + n;
  index

(* Write the first [limit] bytes (default: all) of the concatenated
   [pieces] to [path], then fsync. *)
let write_file_synced ?(limit = max_int) path pieces =
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      ignore
        (List.fold_left
           (fun room p ->
             let n = min room (String.length p) in
             output_substring oc p 0 n;
             room - n)
           limit pieces);
      flush oc;
      try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> ())

let snapshot t pieces =
  assert (not t.t_closed);
  let last = t.t_next - 1 in
  let len = List.fold_left (fun acc p -> acc + String.length p) 0 pieces in
  let m = String.length snap_magic in
  let b = Buffer.create (m + header_len) in
  Buffer.add_string b snap_magic;
  Buffer.add_int64_le b (Int64.of_int last);
  Buffer.add_int64_le b (Int64.of_int len);
  Buffer.add_int32_le b (Codec.crc32_pieces (Buffer.sub b m 16 :: pieces));
  let content = Buffer.contents b :: pieces in
  let tmp = t.t_snap ^ ".tmp" in
  Crash_plan.step t.t_crash Crash_plan.Snap_torn_temp ~partial:(fun () ->
      let n = Buffer.length b + len in
      write_file_synced ~limit:(max 1 (n / 2)) tmp content);
  write_file_synced tmp content;
  Crash_plan.step t.t_crash Crash_plan.Snap_pre_rename ~partial:ignore;
  Sys.rename tmp t.t_snap;
  sync_dir t.t_dir;
  Crash_plan.step t.t_crash Crash_plan.Snap_pre_truncate ~partial:ignore;
  close_out t.t_chan;
  t.t_chan <-
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644
      t.t_wal;
  t.t_wal_bytes <- 0;
  t.t_snap_bytes <- Buffer.length b + len

let next_index t = t.t_next
let wal_bytes t = t.t_wal_bytes
let snapshot_bytes t = t.t_snap_bytes
let compaction_due t = t.t_wal_bytes >= t.t_snap_bytes
let appended_bytes t = t.t_appended

let close t =
  if not t.t_closed then begin
    t.t_closed <- true;
    close_out_noerr t.t_chan
  end
