(* Durable-state suite (DESIGN.md §14).

   Five axes:
   - store primitives: the slicing-by-8 CRC-32 agrees with its
     byte-at-a-time reference on any substring and over any split into
     pieces, WAL framing round-trips, torn tails and CRC-corrupt
     records truncate to the last valid record, snapshots commit
     atomically and absorb the WAL prefix they cover, a damaged
     snapshot.bin is refused rather than skipped, a flipped header bit
     is caught like a flipped payload byte, the payload-only CRC format
     still opens, a compaction is due once the WAL has outgrown the
     snapshot, and a deterministic crash sweep over every write
     opportunity of a fixed append/snapshot script leaves a clean
     prefix of the record stream;
   - satellites: Engine.dump_facts survives a simulated partial write
     (stale temp files are invisible to readers), and a huge 429
     retry-after hint is clamped against the remaining retry budget
     instead of blowing the deadline or forcing a spurious give-up;
   - monitor resumption: a checkpointed monitor stopped mid-timeline
     and recovered from its state directory holds the stopped
     monitor's decoded facts, emits exactly the uninterrupted alert
     stream (dedup by al_seq) and converges to the identical report,
     and its first life's snapshot.bin and wal.log match
     golden/store_format.golden; a reorg-storm lane restarted
     mid-rewind still matches the clean monitor's alert keys; a rule
     added across a restart alerts on the whole history; a long steady
     run's snapshots write at most twice its WAL bytes plus the first;
   - fleet crash sweep: the qcheck property "crash at any injected
     write point, restart, resume == uninterrupted run" over a
     nomad/ronin/attack-pack/exit fleet at --jobs 1 and 4, WAL and
     snapshot write points alike, every one of the six kinds present
     (full 1..N sweep under
     XCW_CRASH_FULL=1, i.e. the @crash alias);
   - golden: the post-restart fleet health table is pinned in
     golden/recovery.golden, and a split (run, stop, resume) fleet run
     reproduces the uninterrupted emission stream byte for byte. *)

module T = Xcw_testlib
module Codec = Xcw_store.Codec
module Crash_plan = Xcw_store.Crash_plan
module Store = Xcw_store.Store
module Engine = Xcw_datalog.Engine
module Rpc = Xcw_rpc.Rpc
module Fault = Xcw_rpc.Fault
module Client = Xcw_rpc.Client
module Bridge = Xcw_bridge.Bridge
module Detector = Xcw_core.Detector
module Monitor = Xcw_core.Monitor
module Report = Xcw_core.Report
module Sup = Xcw_fleet.Supervisor
module Bus = Xcw_fleet.Bus
module Presets = Xcw_fleet.Presets
module Metrics = Xcw_obs.Metrics

let u = T.u

(* A unique scratch directory path (not yet created — the store mkdirs
   it); Filename.temp_file reserves the name race-free. *)
let fresh_dir () =
  let f = Filename.temp_file "xcw-store" "" in
  Sys.remove f;
  f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* Compare [rendered] with golden/NAME.golden, or write it there under
   XCW_GOLDEN_WRITE=DIR. *)
let check_golden ~name rendered =
  match Sys.getenv_opt "XCW_GOLDEN_WRITE" with
  | Some gdir ->
      let path = Filename.concat gdir (name ^ ".golden") in
      write_file path rendered;
      Printf.printf "wrote %s\n%!" path
  | None ->
      let path = Filename.concat "golden" (name ^ ".golden") in
      if not (Sys.file_exists path) then
        Alcotest.failf "missing fixture %s (regenerate with XCW_GOLDEN_WRITE)"
          path
      else
        let expected = T.read_file path in
        if expected <> rendered then
          Alcotest.failf "%s drifted from %s at %s" name path
            (T.first_diff expected rendered)

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)

(* The byte-at-a-time IEEE CRC-32 over boxed Int32 that [Codec.crc32]
   replaced: the slicing-by-8 kernel must agree with it on every
   substring. *)
let reference_crc32 ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          c :=
            if Int32.logand !c 1l <> 0l then
              Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
            else Int32.shift_right_logical !c 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFFl in
  for i = off to off + len - 1 do
    let idx =
      Int32.to_int
        (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code s.[i]))) 0xFFl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

let codec_roundtrip =
  Alcotest.test_case "codec round-trips every primitive; crc32 is IEEE"
    `Quick (fun () ->
      Alcotest.(check int32) "crc32 check vector" 0xCBF43926l
        (Codec.crc32 "123456789");
      (* Every length residue mod 8 at every word alignment. *)
      let s = String.init 40 (fun i -> Char.chr (((i * 151) + 7) land 0xFF)) in
      for off = 0 to 8 do
        for len = 0 to 24 do
          Alcotest.(check int32)
            (Printf.sprintf "crc32 off=%d len=%d" off len)
            (reference_crc32 ~off ~len s)
            (Codec.crc32 ~off ~len s)
        done
      done;
      let b = Buffer.create 64 in
      Codec.W.int b (-42);
      Codec.W.int b max_int;
      Codec.W.bool b true;
      Codec.W.float b 1.5;
      Codec.W.str b "hello\000world";
      Codec.W.opt_str b None;
      Codec.W.opt_str b (Some "x");
      Codec.W.list b (Codec.W.int b) [ 1; 2; 3 ];
      let r = Codec.R.of_string (Buffer.contents b) in
      Alcotest.(check int) "neg int" (-42) (Codec.R.int r);
      Alcotest.(check int) "max int" max_int (Codec.R.int r);
      Alcotest.(check bool) "bool" true (Codec.R.bool r);
      Alcotest.(check (float 0.0)) "float" 1.5 (Codec.R.float r);
      Alcotest.(check string) "str with NUL" "hello\000world" (Codec.R.str r);
      Alcotest.(check (option string)) "none" None (Codec.R.opt_str r);
      Alcotest.(check (option string)) "some" (Some "x") (Codec.R.opt_str r);
      Alcotest.(check (list int)) "list" [ 1; 2; 3 ]
        (Codec.R.list r (fun () -> Codec.R.int r));
      Alcotest.(check bool) "fully consumed" true (Codec.R.at_end r);
      match Codec.R.int (Codec.R.of_string "short") with
      | exception Codec.R.Corrupt _ -> ()
      | _ -> Alcotest.fail "truncated read must raise Corrupt")

(* A string of 0-300 bytes and an in-range substring of it. *)
let substring_gen =
  QCheck.Gen.(
    string_size ~gen:char (int_bound 300) >>= fun s ->
    let n = String.length s in
    int_bound n >>= fun off ->
    int_bound (n - off) >|= fun len -> (s, off, len))

let prop_crc_reference =
  QCheck.Test.make ~count:(T.qcount 500)
    ~name:"crc32 ~off ~len = byte-at-a-time reference"
    (QCheck.make
       ~print:(fun (s, off, len) ->
         Printf.sprintf "%S off=%d len=%d" s off len)
       substring_gen)
    (fun (s, off, len) ->
      Codec.crc32 ~off ~len s = reference_crc32 ~off ~len s)

(* A string of 0-300 bytes cut at random points (empty pieces
   included). *)
let pieces_gen =
  QCheck.Gen.(
    string_size ~gen:char (int_bound 300) >>= fun s ->
    list_size (int_bound 8) (int_bound (String.length s)) >|= fun cuts ->
    let cuts = List.sort compare cuts in
    let rec split from = function
      | [] -> [ String.sub s from (String.length s - from) ]
      | c :: rest -> String.sub s from (c - from) :: split c rest
    in
    split 0 cuts)

let prop_crc_pieces =
  QCheck.Test.make ~count:(T.qcount 500)
    ~name:"crc32_pieces = crc32 of the concatenation"
    (QCheck.make
       ~print:(fun ps -> String.concat " | " (List.map String.escaped ps))
       pieces_gen)
    (fun ps ->
      let whole = Codec.crc32 (String.concat "" ps) in
      Codec.crc32_pieces ps = whole
      && List.fold_left (fun crc p -> Codec.crc32 ~crc p) 0l ps = whole)

(* ------------------------------------------------------------------ *)
(* WAL + snapshot primitives                                           *)

let wal_roundtrip =
  Alcotest.test_case "append / close / reopen round-trips the records"
    `Quick (fun () ->
      let dir = fresh_dir () in
      let t, r0 = Store.open_ ~dir () in
      Alcotest.(check bool) "fresh dir is empty" true
        (r0.Store.r_snapshot = None && r0.Store.r_records = []);
      Alcotest.(check int) "first index" 1 (Store.append t "one");
      Alcotest.(check int) "second index" 2 (Store.append t "two");
      Store.close t;
      let t2, r = Store.open_ ~dir () in
      Alcotest.(check (list (pair int string)))
        "records back in order"
        [ (1, "one"); (2, "two") ]
        r.Store.r_records;
      Alcotest.(check int) "no bytes truncated" 0 r.Store.r_truncated_bytes;
      Alcotest.(check int) "indices continue" 3 (Store.append t2 "three");
      Store.close t2)

let wal_torn_tail =
  Alcotest.test_case "a torn trailing record is truncated away" `Quick
    (fun () ->
      let dir = fresh_dir () in
      let t, _ = Store.open_ ~dir () in
      ignore (Store.append t "alpha");
      ignore (Store.append t "beta");
      Store.close t;
      let wal = Filename.concat dir "wal.log" in
      let good = read_file wal in
      (* Half a frame of a third record reaches disk. *)
      write_file wal (good ^ String.sub good 0 13);
      let t2, r = Store.open_ ~dir () in
      Alcotest.(check (list (pair int string)))
        "valid prefix survives"
        [ (1, "alpha"); (2, "beta") ]
        r.Store.r_records;
      Alcotest.(check int) "torn bytes reported" 13 r.Store.r_truncated_bytes;
      Alcotest.(check int) "file truncated to the valid length"
        (String.length good)
        (String.length (read_file wal));
      (* The store keeps appending cleanly after the amputation. *)
      ignore (Store.append t2 "gamma");
      Store.close t2;
      let _, r2 = Store.open_ ~dir () in
      Alcotest.(check (list (pair int string)))
        "append after truncation is durable"
        [ (1, "alpha"); (2, "beta"); (3, "gamma") ]
        r2.Store.r_records)

let wal_corrupt_record =
  Alcotest.test_case "a CRC-corrupt record cuts the scan at its offset"
    `Quick (fun () ->
      let dir = fresh_dir () in
      let t, _ = Store.open_ ~dir () in
      ignore (Store.append t "first");
      let mid_off = Store.wal_bytes t in
      ignore (Store.append t "second");
      ignore (Store.append t "third");
      Store.close t;
      let wal = Filename.concat dir "wal.log" in
      let raw = Bytes.of_string (read_file wal) in
      (* Flip one payload byte of the middle record. *)
      let off = mid_off + 20 in
      Bytes.set raw off (Char.chr (Char.code (Bytes.get raw off) lxor 0xff));
      write_file wal (Bytes.to_string raw);
      let _, r = Store.open_ ~dir () in
      Alcotest.(check (list (pair int string)))
        "only the records before the corruption survive"
        [ (1, "first") ]
        r.Store.r_records;
      Alcotest.(check bool) "corrupt tail truncated" true
        (r.Store.r_truncated_bytes > 0))

let snapshot_recovery =
  Alcotest.test_case
    "snapshot absorbs the WAL prefix; stale temp files are discarded"
    `Quick (fun () ->
      let dir = fresh_dir () in
      let t, _ = Store.open_ ~dir () in
      ignore (Store.append t "a");
      ignore (Store.append t "b");
      Store.snapshot t [ "state-after-"; "2" ];
      Alcotest.(check int) "WAL truncated after the snapshot" 0
        (Store.wal_bytes t);
      ignore (Store.append t "c");
      Store.close t;
      (* A leftover temp from an aborted later snapshot must be inert. *)
      write_file (Filename.concat dir "snapshot.bin.tmp") "garbage";
      let t2, r = Store.open_ ~dir () in
      Alcotest.(check (option string)) "snapshot payload" (Some "state-after-2")
        r.Store.r_snapshot;
      Alcotest.(check (list (pair int string)))
        "only the post-snapshot tail replays"
        [ (3, "c") ]
        r.Store.r_records;
      Alcotest.(check bool) "temp file removed" false
        (Sys.file_exists (Filename.concat dir "snapshot.bin.tmp"));
      Alcotest.(check int) "indices continue past the snapshot" 4
        (Store.append t2 "d");
      Store.close t2)

(* [s] with bit [bit] of byte [off] flipped. *)
let flip s off bit =
  let raw = Bytes.of_string s in
  Bytes.set raw off (Char.chr (Char.code (Bytes.get raw off) lxor (1 lsl bit)));
  Bytes.to_string raw

(* The WAL records a snapshot covers are truncated once it is written,
   so a damaged snapshot.bin cannot be skipped without losing them:
   opening the store refuses it, naming the file, and leaves it as
   found. *)
let damaged_snapshot_refused =
  Alcotest.test_case "a damaged snapshot.bin is refused, not skipped" `Quick
    (fun () ->
      let dir = fresh_dir () in
      let t, _ = Store.open_ ~dir () in
      ignore (Store.append t "a");
      Store.snapshot t [ "state-after-1" ];
      Store.close t;
      let snap = Filename.concat dir "snapshot.bin" in
      let good = read_file snap in
      let refused what damaged =
        write_file snap damaged;
        (match Store.open_ ~dir () with
        | t, _ ->
            Store.close t;
            Alcotest.failf "%s: the store opened" what
        | exception Store.Damaged_snapshot msg ->
            Alcotest.(check bool)
              (what ^ ": the error names the file")
              true
              (String.starts_with ~prefix:snap msg));
        Alcotest.(check string) (what ^ ": left as found") damaged
          (read_file snap)
      in
      (* Magic, payload length, CRC, then the last payload byte. *)
      List.iter
        (fun off -> refused (Printf.sprintf "byte %d flipped" off) (flip good off 0))
        [ 0; 16; 24; String.length good - 1 ];
      (* Every bit of the covered index (bytes 8-15) and of the length
         (16-23): the CRC covers both. *)
      for off = 8 to 23 do
        for bit = 0 to 7 do
          refused
            (Printf.sprintf "byte %d bit %d flipped" off bit)
            (flip good off bit)
        done
      done;
      refused "cut short" (String.sub good 0 (String.length good - 1));
      refused "cut inside the header" (String.sub good 0 10);
      write_file snap good;
      let t, r = Store.open_ ~dir () in
      Store.close t;
      Alcotest.(check (option string)) "the intact snapshot still opens"
        (Some "state-after-1") r.Store.r_snapshot)

(* A frame's CRC covers its length word and index: a flipped header bit
   ends the scan at that frame, so no record comes back under an index
   it was not written with, or with bytes it was not written with. *)
let wal_header_flips =
  Alcotest.test_case "a flipped frame header bit never moves a record"
    `Quick (fun () ->
      let dir = fresh_dir () in
      let t, _ = Store.open_ ~dir () in
      let written =
        List.map (fun p -> (Store.append t p, p)) [ "one"; "two"; "three" ]
      in
      Store.close t;
      let wal = Filename.concat dir "wal.log" in
      let good = read_file wal in
      (* Each frame is a 20-byte header (length word, index, CRC) and
         its payload. *)
      let frame_starts, _ =
        List.fold_left
          (fun (acc, pos) (_, p) -> (pos :: acc, pos + 20 + String.length p))
          ([], 0) written
      in
      List.iter
        (fun start ->
          for off = start to start + 15 do
            for bit = 0 to 7 do
              write_file wal (flip good off bit);
              let t, r = Store.open_ ~dir () in
              Store.close t;
              List.iter
                (fun (i, p) ->
                  if not (List.mem (i, p) written) then
                    Alcotest.failf "byte %d bit %d: record %d %S was not written"
                      off bit i p)
                r.Store.r_records;
              Alcotest.(check bool)
                (Printf.sprintf "byte %d bit %d: the damaged frame is dropped"
                   off bit)
                true
                (List.length r.Store.r_records < List.length written)
            done
          done)
        frame_starts)

(* The format before the CRC covered the headers: an [XCWSNAP1]
   snapshot and frames whose CRC covers the payload alone, with an
   unmarked length word. *)
let payload_only_frame index payload =
  let b = Buffer.create 32 in
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_int64_le b (Int64.of_int index);
  Buffer.add_int32_le b (Codec.crc32 payload);
  Buffer.add_string b payload;
  Buffer.contents b

let payload_only_snapshot last payload =
  let b = Buffer.create 32 in
  Buffer.add_string b "XCWSNAP1";
  Buffer.add_int64_le b (Int64.of_int last);
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_int32_le b (Codec.crc32 payload);
  Buffer.add_string b payload;
  Buffer.contents b

let payload_only_format_opens =
  Alcotest.test_case
    "a state directory in the payload-only CRC format opens unchanged"
    `Quick (fun () ->
      let dir = fresh_dir () in
      Unix.mkdir dir 0o755;
      let snap = Filename.concat dir "snapshot.bin" in
      let wal = Filename.concat dir "wal.log" in
      (* Record 2 is covered by the snapshot, as after a crash before
         the WAL truncation; records 3 and 4 follow it. *)
      write_file snap (payload_only_snapshot 2 "state-after-2");
      write_file wal
        (String.concat ""
           [
             payload_only_frame 2 "b";
             payload_only_frame 3 "c";
             payload_only_frame 4 "d";
           ]);
      let t, r = Store.open_ ~dir () in
      Alcotest.(check (option string)) "snapshot payload" (Some "state-after-2")
        r.Store.r_snapshot;
      Alcotest.(check (list (pair int string)))
        "the records after the snapshot"
        [ (3, "c"); (4, "d") ]
        r.Store.r_records;
      Alcotest.(check int) "nothing truncated" 0 r.Store.r_truncated_bytes;
      Alcotest.(check int) "the snapshot's size is the compaction threshold"
        (String.length (read_file snap))
        (Store.snapshot_bytes t);
      Alcotest.(check int) "the uncut WAL, covered record included, counts"
        (String.length (read_file wal))
        (Store.wal_bytes t);
      Alcotest.(check bool) "and has outgrown the snapshot" true
        (Store.compaction_due t);
      (* New frames follow the old ones in the same file. *)
      Alcotest.(check int) "indices continue" 5 (Store.append t "e");
      Store.close t;
      let t, r = Store.open_ ~dir () in
      Alcotest.(check (list (pair int string)))
        "old and new frames read back together"
        [ (3, "c"); (4, "d"); (5, "e") ]
        r.Store.r_records;
      (* A compaction rewrites the snapshot in the new format and
         truncates every old frame. *)
      Store.snapshot t [ "state-after-5" ];
      Store.close t;
      Alcotest.(check string) "new magic" "XCWSNAP2"
        (String.sub (read_file snap) 0 8);
      Alcotest.(check int) "old frames gone" 0
        (String.length (read_file wal));
      let t, r = Store.open_ ~dir () in
      Store.close t;
      Alcotest.(check (option string)) "compacted payload" (Some "state-after-5")
        r.Store.r_snapshot;
      Alcotest.(check (list (pair int string))) "no records" [] r.Store.r_records)

(* The compaction rule: due with no snapshot, not due right after one,
   due again once the WAL has grown as large as the snapshot. *)
let compaction_rule =
  Alcotest.test_case "compaction is due once the WAL outgrows the snapshot"
    `Quick (fun () ->
      let dir = fresh_dir () in
      let t, _ = Store.open_ ~dir () in
      Alcotest.(check int) "no snapshot: threshold 0" 0 (Store.snapshot_bytes t);
      ignore (Store.append t "first");
      Alcotest.(check bool) "the first record is due" true
        (Store.compaction_due t);
      Store.snapshot t [ String.make 100 's' ];
      let size = Store.snapshot_bytes t in
      Alcotest.(check int) "snapshot file size" size
        (String.length (read_file (Filename.concat dir "snapshot.bin")));
      Alcotest.(check bool) "not due after a snapshot" false
        (Store.compaction_due t);
      let rec grow n =
        if Store.compaction_due t then n
        else begin
          ignore (Store.append t "0123456789");
          grow (n + 1)
        end
      in
      let n = grow 0 in
      Alcotest.(check bool) "due once the WAL reaches the snapshot's size" true
        (Store.wal_bytes t >= size && Store.wal_bytes t - 30 < size);
      Alcotest.(check bool) "after several records" true (n > 1);
      Store.close t;
      (* The threshold survives a reopen. *)
      let t, _ = Store.open_ ~dir () in
      Alcotest.(check int) "threshold read back" size (Store.snapshot_bytes t);
      Alcotest.(check bool) "still due" true (Store.compaction_due t);
      Store.close t)

(* Deterministic store-level crash sweep: run a fixed append/snapshot
   script once per write opportunity, crashing at each; after every
   crash the reopened store must hold a clean prefix of the record
   stream containing at least every append that returned. *)
let store_crash_sweep =
  Alcotest.test_case "crash at every write point leaves a clean prefix"
    `Quick (fun () ->
      let script crash dir =
        let completed = ref [] in
        let t, _ = Store.open_ ?crash ~dir () in
        (try
           for i = 1 to 6 do
             let p = Printf.sprintf "rec-%d" i in
             ignore (Store.append t p);
             completed := p :: !completed;
             if i = 3 then Store.snapshot t [ "upto-3" ]
           done
         with Crash_plan.Crashed _ -> ());
        Store.close t;
        List.rev !completed
      in
      let count = Crash_plan.none () in
      ignore (script (Some count) (fresh_dir ()));
      let n = Crash_plan.ops count in
      Alcotest.(check bool) "script exercises both paths" true (n >= 12);
      for k = 1 to n do
        let dir = fresh_dir () in
        let completed = script (Some (Crash_plan.at k)) dir in
        let _, r = Store.open_ ~dir () in
        let visible =
          (match r.Store.r_snapshot with
          | Some "upto-3" -> [ "rec-1"; "rec-2"; "rec-3" ]
          | Some s -> Alcotest.failf "k=%d: unexpected snapshot %S" k s
          | None -> [])
          @ List.map snd r.Store.r_records
        in
        let m = List.length visible in
        let expect_prefix =
          List.init m (fun i -> Printf.sprintf "rec-%d" (i + 1))
        in
        Alcotest.(check (list string))
          (Printf.sprintf "k=%d: visible records form a clean prefix" k)
          expect_prefix visible;
        Alcotest.(check bool)
          (Printf.sprintf "k=%d: no returned append was lost" k)
          true
          (m >= List.length completed)
      done)

(* ------------------------------------------------------------------ *)
(* Satellite: dump_facts atomicity                                     *)

let dump_facts_atomic =
  Alcotest.test_case
    "dump_facts commits by rename; a partial write is invisible" `Quick
    (fun () ->
      let db = Engine.create_db () in
      Engine.add_fact db "edge" [ Xcw_datalog.Ast.Str "a"; Xcw_datalog.Ast.Int 1 ];
      Engine.add_fact db "edge" [ Xcw_datalog.Ast.Str "b"; Xcw_datalog.Ast.Int 2 ];
      let dir = fresh_dir () in
      Unix.mkdir dir 0o755;
      (* A crash mid-dump leaves only the temp file behind: readers of
         the published path never see it... *)
      write_file (Filename.concat dir "edge.facts.tmp") "torn\tgarbage";
      Alcotest.(check bool) "partial dump not visible under the real name"
        false
        (Sys.file_exists (Filename.concat dir "edge.facts"));
      (* ...and the next complete dump replaces it atomically. *)
      Engine.dump_facts db ~dir;
      let content = read_file (Filename.concat dir "edge.facts") in
      Alcotest.(check string) "full TSV published" "a\t1\nb\t2\n" content;
      Alcotest.(check bool) "temp file consumed by the rename" false
        (Sys.file_exists (Filename.concat dir "edge.facts.tmp")))

(* ------------------------------------------------------------------ *)
(* Satellite: retry-after clamped against the remaining budget         *)

let retry_after_clamped =
  Alcotest.test_case
    "a huge 429 hint neither sleeps past the budget nor forces give-up"
    `Quick (fun () ->
      (* Every request is rate-limited with a 500 s advisory; the
         budget is 10 s.  The un-clamped behaviour either slept 500 s
         (blowing the deadline) or — feeding the inflated pause into
         the give-up check — gave up on attempt 1 with zero retries. *)
      let plan =
        {
          Fault.none with
          Fault.f_rate_limit_prob = 1.0;
          f_rate_limit_burst = 1;
          f_retry_after = 500.0;
        }
      in
      let budget = 10.0 in
      let policy =
        {
          Client.default_policy with
          Client.p_max_attempts = 5;
          p_base_backoff = 1.0;
          p_backoff_factor = 2.0;
          p_max_backoff = 4.0;
          p_jitter = 0.0;
          p_latency_budget = budget;
        }
      in
      let b, _ = T.make_bridge () in
      let rpc = Rpc.create ~fault:plan b.Bridge.source.Bridge.chain in
      let c = Client.create ~policy ~seed:21 rpc in
      (match
         (Client.get_balance c (Xcw_evm.Address.of_seed "clamp")).Rpc.value
       with
      | Error (Fault.Rate_limited _) -> ()
      | _ -> Alcotest.fail "expected the final rate-limit error");
      let s = Client.stats c in
      Alcotest.(check bool)
        "the affordable retry happened despite the huge hint" true
        (s.Client.s_retries >= 1);
      Alcotest.(check bool) "total sleep stayed within the budget" true
        (s.Client.s_backoff_seconds <= budget);
      Alcotest.(check int) "exactly one give-up, at the deadline" 1
        s.Client.s_give_ups)

(* ------------------------------------------------------------------ *)
(* Monitor resumption                                                  *)

let render_alerts alerts =
  String.concat "\n"
    (List.map
       (fun (a : Monitor.alert) ->
         let sb, tb = a.Monitor.al_detected_at in
         Printf.sprintf "%d|%s|(%d,%d)" a.Monitor.al_seq (Bus.signature a) sb
           tb)
       alerts)

(* Merge polls across a restart: drop replayed alerts at or below the
   consumer's sequence high-water mark (the documented dedup rule). *)
let dedup_alerts hwm alerts =
  List.filter (fun (a : Monitor.alert) -> a.Monitor.al_seq > !hwm) alerts
  |> List.map (fun (a : Monitor.alert) ->
         hwm := max !hwm a.Monitor.al_seq;
         a)

let monitor_resume =
  Alcotest.test_case
    "stop/recover mid-timeline: alert stream and report identical" `Quick
    (fun () ->
      let ops = [ 0; 1; 2; 3; 0; 2 ] in
      let b, m = T.make_bridge () in
      let input = T.monitor_input b in
      let user = T.user_with_tokens b m "store-resume" (u 1_000_000) in
      T.seed_completed_deposit b m user;
      let snaps =
        List.mapi
          (fun i op ->
            T.apply_op b m user i op;
            T.cur b)
          ops
      in
      let clean = Monitor.create input in
      let clean_alerts =
        List.concat_map
          (fun (sb, tb) -> Monitor.poll clean ~source_block:sb ~target_block:tb)
          snaps
      in
      let dir = fresh_dir () in
      let hwm = ref 0 in
      (* First life: stop after the third poll. *)
      let ck1 = Monitor.Checkpoint.open_ ~dir () in
      let mon1 = Monitor.create ~checkpoint:ck1 input in
      let first, rest =
        (List.filteri (fun i _ -> i < 3) snaps,
         List.filteri (fun i _ -> i >= 3) snaps)
      in
      let alerts1 =
        List.concat_map
          (fun (sb, tb) ->
            dedup_alerts hwm (Monitor.poll mon1 ~source_block:sb ~target_block:tb))
          first
      in
      let seq1 = Monitor.alert_seq mon1 in
      let facts1 = Monitor.cached_facts mon1 in
      Monitor.Checkpoint.close ck1;
      (* The on-disk bytes of the first life are pinned: a change to the
         store or the checkpoint codec that moves a byte shows up here. *)
      check_golden ~name:"store_format"
        (String.concat ""
           (List.map
              (fun file ->
                let raw = read_file (Filename.concat dir file) in
                Printf.sprintf "%s bytes=%d crc32=%08lx\n" file
                  (String.length raw) (Codec.crc32 raw))
              [ "snapshot.bin"; "wal.log" ]));
      (* The restart below recovers from a snapshot plus a WAL tail:
         the first poll compacted at once, and the next two records
         stayed in the WAL, smaller than that snapshot. *)
      (let store, r = Store.open_ ~dir () in
       Store.close store;
       Alcotest.(check bool) "snapshot.bin written" true
         (r.Store.r_snapshot <> None);
       Alcotest.(check int) "WAL records after the snapshot" 2
         (List.length r.Store.r_records));
      (* Second life: recover and replay the remaining timeline. *)
      let ck2 = Monitor.Checkpoint.open_ ~dir () in
      let mon2 = Monitor.create ~checkpoint:ck2 input in
      Alcotest.(check bool) "decoded facts recovered" true
        (Monitor.cached_facts mon2 = facts1);
      Alcotest.(check int) "sequence counter recovered" seq1
        (Monitor.alert_seq mon2);
      Alcotest.(check int) "poll counter recovered" 3 (Monitor.polls mon2);
      let replay = dedup_alerts hwm (Monitor.replayed mon2) in
      Alcotest.(check string) "replay tail already covered by the consumer"
        "" (render_alerts replay);
      let alerts2 =
        List.concat_map
          (fun (sb, tb) ->
            dedup_alerts hwm (Monitor.poll mon2 ~source_block:sb ~target_block:tb))
          rest
      in
      Alcotest.(check string) "alert stream identical across the restart"
        (render_alerts clean_alerts)
        (render_alerts (alerts1 @ replay @ alerts2));
      (match (Monitor.last_report clean, Monitor.last_report mon2) with
      | Some rc, Some rr ->
          Alcotest.(check bool) "final reports identical" true
            (T.report_signature rc = T.report_signature rr)
      | _ -> Alcotest.fail "missing report");
      Monitor.Checkpoint.close ck2;
      let sb, tb = List.nth snaps (List.length snaps - 1) in
      (* A genesis re-scan sees only the final state; the stepwise
         stream can also alert on transients visible at intermediate
         cursors, so genesis's keys are a subset, not an equal set. *)
      let genesis = Monitor.create input in
      let clean_keys = T.alert_keys clean_alerts in
      List.iter
        (fun k ->
          if not (List.mem k clean_keys) then
            let rule, cls, tx = k in
            Alcotest.failf "genesis alert %s/%s/%s absent from the stream"
              rule cls tx)
        (T.alert_keys
           (Monitor.poll genesis ~source_block:sb ~target_block:tb));
      (* Exactly-once: a third life's first poll at the last durable
         cursors re-decodes and re-alerts nothing. *)
      let ck3 = Monitor.Checkpoint.open_ ~dir () in
      let mon3 = Monitor.create ~checkpoint:ck3 input in
      Alcotest.(check string) "resumed poll at the durable cursors is silent"
        ""
        (render_alerts (Monitor.poll mon3 ~source_block:sb ~target_block:tb));
      Monitor.Checkpoint.close ck3)

let reorg_restart =
  Alcotest.test_case
    "reorg rewind survives a restart: same alert keys, same report" `Quick
    (fun () ->
      let plan =
        { Fault.none with Fault.f_reorg_prob = 0.5; f_reorg_depth = 3 }
      in
      let b, m = T.make_bridge () in
      let input = T.monitor_input b in
      let faulty_input =
        {
          input with
          Detector.i_source_fault = Some plan;
          i_target_fault = Some plan;
          i_rpc_seed = 7;
        }
      in
      let user = T.user_with_tokens b m "store-reorg" (u 1_000_000) in
      T.seed_completed_deposit b m user;
      let clean = Monitor.create input in
      let dir = fresh_dir () in
      let ck1 = Monitor.Checkpoint.open_ ~dir () in
      let faulty1 = Monitor.create ~checkpoint:ck1 faulty_input in
      let clean_alerts = ref [] and faulty_alerts = ref [] in
      List.iteri
        (fun i op ->
          T.apply_op b m user i op;
          let sb, tb = T.cur b in
          clean_alerts :=
            !clean_alerts @ Monitor.poll clean ~source_block:sb ~target_block:tb;
          faulty_alerts :=
            !faulty_alerts
            @ Monitor.poll faulty1 ~source_block:sb ~target_block:tb)
        [ 0; 1; 2; 3 ];
      (* Keep polling until a reorg has actually rewound the cursor, so
         the stop lands mid-rewind — but never to full sync. *)
      let sb, tb = T.cur b in
      let polls = ref 0 in
      while (Monitor.health faulty1).Monitor.h_reorgs = 0 && !polls < 100 do
        incr polls;
        faulty_alerts :=
          !faulty_alerts
          @ Monitor.poll faulty1 ~source_block:sb ~target_block:tb
      done;
      let reorgs1 = (Monitor.health faulty1).Monitor.h_reorgs in
      Alcotest.(check bool) "a reorg fired before the stop" true (reorgs1 > 0);
      let facts1 = Monitor.cached_facts faulty1 in
      Monitor.Checkpoint.close ck1;
      (* Restart mid-rewind: the recovered monitor re-derives the
         database and keeps chasing the chains.  The fault PRNG restarts
         with the process, so the claim is key equality (exactly the
         clean alerts, no duplicates), not byte-identity of cursors. *)
      let ck2 = Monitor.Checkpoint.open_ ~dir () in
      let faulty2 = Monitor.create ~checkpoint:ck2 faulty_input in
      Alcotest.(check bool) "decoded facts recovered" true
        (Monitor.cached_facts faulty2 = facts1);
      Alcotest.(check int) "reorg count recovered" reorgs1
        (Monitor.health faulty2).Monitor.h_reorgs;
      let hwm = ref (Monitor.alert_seq faulty2) in
      let synced = ref false in
      let polls = ref 0 in
      while (not !synced) && !polls < 300 do
        incr polls;
        let late = Monitor.poll faulty2 ~source_block:sb ~target_block:tb in
        faulty_alerts := !faulty_alerts @ dedup_alerts hwm late;
        synced := (Monitor.health faulty2).Monitor.h_synced
      done;
      Alcotest.(check bool) "synced after the restart" true !synced;
      Alcotest.(check bool) "reorg signals survived recovery" true
        ((Monitor.health faulty2).Monitor.h_reorgs > 0);
      Alcotest.(check bool) "alert keys identical to the clean run" true
        (T.alert_keys !clean_alerts = T.alert_keys !faulty_alerts);
      (match (Monitor.last_report clean, Monitor.last_report faulty2) with
      | Some rc, Some rf ->
          Alcotest.(check bool) "reports identical" true
            (T.report_signature rc = T.report_signature rf)
      | _ -> Alcotest.fail "missing report");
      Monitor.Checkpoint.close ck2)

(* A snapshot holds what the monitor decoded, not what it derived, so
   a rule shipped in an upgrade sees the whole history at the first
   poll after the restart: a monitor checkpointed without
   deposit_finality_violation and restarted with it alerts on exactly
   the finality violations a fresh monitor finds. *)
let rule_added_across_restart =
  Alcotest.test_case
    "a rule added across a restart alerts on the whole history" `Quick
    (fun () ->
      let built = Xcw_workload.Nomad.build ~seed:42 ~scale:0.01 () in
      let input =
        Presets.input_of ~built ~plugin:Xcw_core.Decoder.nomad_plugin
          ~label:"nomad"
      in
      let head c = List.length (Xcw_chain.Chain.all_blocks c) in
      let sb = head input.Detector.i_source_chain in
      let tb = head input.Detector.i_target_chain in
      let shipped = input.Detector.i_program in
      let older =
        {
          Xcw_datalog.Ast.rules =
            List.filter
              (fun (r : Xcw_datalog.Ast.rule) ->
                r.Xcw_datalog.Ast.head.Xcw_datalog.Ast.pred
                <> Xcw_core.Rules.r_deposit_finality_violation)
              shipped.Xcw_datalog.Ast.rules;
        }
      in
      let finality alerts =
        T.alert_keys
          (List.filter
             (fun (a : Monitor.alert) ->
               a.Monitor.al_anomaly.Report.a_class = Report.Finality_violation)
             alerts)
      in
      let dir = fresh_dir () in
      let ck1 = Monitor.Checkpoint.open_ ~dir () in
      let mon1 =
        Monitor.create ~checkpoint:ck1 { input with Detector.i_program = older }
      in
      let before =
        finality (Monitor.poll mon1 ~source_block:sb ~target_block:tb)
      in
      Monitor.Checkpoint.close ck1;
      let ck2 = Monitor.Checkpoint.open_ ~dir () in
      let mon2 = Monitor.create ~checkpoint:ck2 input in
      let after =
        finality (Monitor.poll mon2 ~source_block:sb ~target_block:tb)
      in
      Monitor.Checkpoint.close ck2;
      let fresh =
        finality
          (Monitor.poll (Monitor.create input) ~source_block:sb
             ~target_block:tb)
      in
      Alcotest.(check int) "no finality alert without the rule" 0
        (List.length before);
      Alcotest.(check int) "the fresh monitor's finality alerts" 10
        (List.length fresh);
      Alcotest.(check (list (triple string string string)))
        "the restarted monitor emits the same keys" fresh after)

(* Compaction keeps a long run's snapshot bytes linear in its WAL
   bytes: a steady monitor that decodes a slice of the history at each
   of 400 polls writes, in all its snapshots together, at most twice
   its WAL bytes plus its first snapshot.  Snapshotting every k-th poll
   instead writes the whole state 400/k times, quadratic in the run. *)
let compaction_bytes_bound =
  Alcotest.test_case "snapshot bytes stay within twice the WAL over 400 polls"
    `Quick (fun () ->
      let built = Xcw_workload.Nomad.build ~seed:42 ~scale:0.01 () in
      let input =
        Presets.input_of ~built ~plugin:Xcw_core.Decoder.nomad_plugin
          ~label:"nomad"
      in
      let head c = List.length (Xcw_chain.Chain.all_blocks c) in
      let sh = head input.Detector.i_source_chain in
      let th = head input.Detector.i_target_chain in
      let metrics = Metrics.create () in
      let counter ?labels name =
        match Metrics.find (Metrics.snapshot metrics) ?labels name with
        | Some { Metrics.m_value = Metrics.V_counter n; _ } -> n
        | _ -> Alcotest.failf "missing counter %s" name
      in
      let bytes kind =
        counter ~labels:[ ("kind", kind) ] "xcw_monitor_checkpoint_bytes_total"
      in
      let ck = Monitor.Checkpoint.open_ ~dir:(fresh_dir ()) () in
      let mon = Monitor.create ~metrics ~checkpoint:ck input in
      let polls = 400 in
      let first = ref 0 in
      for i = 1 to polls do
        ignore
          (Monitor.poll mon ~source_block:(sh * i / polls)
             ~target_block:(th * i / polls));
        if i = 1 then first := bytes "snapshot"
      done;
      Monitor.Checkpoint.close ck;
      let wal = bytes "wal" and snapshots = bytes "snapshot" in
      let n = counter "xcw_monitor_snapshots_total" in
      Alcotest.(check bool) "the first poll compacted" true (!first > 0);
      Alcotest.(check bool) "and later polls compacted again" true (n > 2);
      if snapshots > (2 * wal) + !first then
        Alcotest.failf
          "%d snapshots wrote %d bytes, over 2 x %d WAL bytes + %d for the \
           first"
          n snapshots wal !first)

(* ------------------------------------------------------------------ *)
(* Fleet crash sweep                                                   *)

let sweep_rounds = 4

let sweep_lanes () =
  [
    Presets.lane ~scale:0.01 ~seed:3 ~rounds_to_sync:3 Presets.Nomad;
    Presets.lane ~scale:0.01 ~seed:5 ~rounds_to_sync:3 Presets.Ronin;
    Presets.lane ~rounds_to_sync:3 (Presets.Attack Report.Forged_proof);
    (* Exit-bridge accounting lane: slashing evasion also emits
       root-divergence alerts, so a resumed checkpoint must replay the
       Accounting anomaly-class tags byte-identically. *)
    Presets.lane ~rounds_to_sync:3 (Presets.Exit_attack Report.Slashing_evasion);
  ]

let render_fleet_stream fas =
  String.concat "\n"
    (List.map
       (fun (fa : Bus.fleet_alert) ->
         Printf.sprintf "#%d r%d %s a%d %s" fa.Bus.fa_seq fa.Bus.fa_round
           fa.Bus.fa_bridge fa.Bus.fa_alert.Monitor.al_seq
           (Bus.signature fa.Bus.fa_alert))
       fas)

(* Drive a durable fleet to [sweep_rounds], restarting (without the
   plan — a process crashes once) whenever the injected crash fires.
   The supervisor snapshots every 2 rounds and each lane whenever its
   WAL has outgrown its last snapshot (at once, on its first poll), so
   the crash space holds snapshot write points (torn temp, pre-rename,
   pre-truncate) as well as WAL ones, and restarts recover from a
   snapshot plus a WAL tail.  The consumer dedups by [fa_seq] high-water mark, exactly as
   the Supervisor docs prescribe.  Returns the merged emission stream
   and how many crashes were survived. *)
let drive_fleet ~jobs ~dir ~crash =
  let stream = ref [] and hwm = ref (-1) in
  let add fas =
    List.iter
      (fun (fa : Bus.fleet_alert) ->
        if fa.Bus.fa_seq > !hwm then begin
          stream := fa :: !stream;
          hwm := fa.Bus.fa_seq
        end)
      fas
  in
  let crashes = ref 0 in
  let rec go crash =
    let sup =
      Sup.create ~ndomains:jobs ~state_dir:dir ?crash ~snapshot_every:2
        (sweep_lanes ())
    in
    add (Sup.replayed sup);
    match
      while Sup.rounds sup < sweep_rounds do
        add (Sup.poll sup)
      done
    with
    | () -> ()
    | exception Crash_plan.Crashed _ ->
        incr crashes;
        go None
  in
  go crash;
  (List.rev !stream, !crashes)

(* Uninterrupted baseline per jobs setting, computed once, with its
   counting plan, which sizes the 1..N crash space. *)
let baselines : (int, string * Crash_plan.t) Hashtbl.t = Hashtbl.create 4

let baseline ~jobs =
  match Hashtbl.find_opt baselines jobs with
  | Some b -> b
  | None ->
      let count = Crash_plan.none () in
      let stream, crashes =
        drive_fleet ~jobs ~dir:(fresh_dir ()) ~crash:(Some count)
      in
      assert (crashes = 0);
      (* The sweep is only as good as its crash space: every kind of
         write point must occur in it. *)
      List.iter
        (fun (point, n) ->
          if n = 0 then
            Alcotest.failf "jobs=%d: the sweep reaches no %s point" jobs
              (Crash_plan.point_name point))
        (Crash_plan.counts count);
      let b = (render_fleet_stream stream, count) in
      Hashtbl.replace baselines jobs b;
      b

let check_crash_at ~jobs k =
  let expected, _ = baseline ~jobs in
  let stream, crashes = drive_fleet ~jobs ~dir:(fresh_dir ()) ~crash:(Some (Crash_plan.at k)) in
  let got = render_fleet_stream stream in
  if crashes <> 1 then
    Alcotest.failf "jobs=%d k=%d: expected exactly one crash, got %d" jobs k
      crashes;
  if got <> expected then
    Alcotest.failf "jobs=%d k=%d: stream diverged at %s" jobs k
      (T.first_diff expected got);
  true

let prop_crash_sweep =
  QCheck.Test.make ~count:(T.qcount 5)
    ~name:"crash at any write point, restart, resume == uninterrupted"
    QCheck.(pair (oneofl [ 1; 4 ]) (int_bound 1_000_000))
    (fun (jobs, pick) ->
      let _, plan = baseline ~jobs in
      let k = 1 + (pick mod Crash_plan.ops plan) in
      check_crash_at ~jobs k)

(* The exhaustive 1..N sweep at both worker counts — minutes, not
   seconds, so it only runs under XCW_CRASH_FULL=1 (the @crash alias). *)
let full_crash_sweep =
  Alcotest.test_case "exhaustive crash sweep (XCW_CRASH_FULL=1)" `Slow
    (fun () ->
      match Sys.getenv_opt "XCW_CRASH_FULL" with
      | None -> print_endline "set XCW_CRASH_FULL=1 for the full sweep"
      | Some _ ->
          List.iter
            (fun jobs ->
              let _, plan = baseline ~jobs in
              let n = Crash_plan.ops plan in
              Printf.printf "sweeping %d crash points at --jobs %d (%s)\n%!" n
                jobs
                (String.concat ", "
                   (List.map
                      (fun (p, k) ->
                        Printf.sprintf "%s %d" (Crash_plan.point_name p) k)
                      (Crash_plan.counts plan)));
              for k = 1 to n do
                ignore (check_crash_at ~jobs k)
              done)
            [ 1; 4 ])

(* ------------------------------------------------------------------ *)
(* Split fleet run + recovery golden                                   *)

let state_name = function
  | Sup.Active -> "active"
  | Sup.Degraded -> "degraded"
  | Sup.Parked { until; term } -> Printf.sprintf "parked(%d,%d)" until term
  | Sup.Probation -> "probation"

let golden_lanes () =
  [
    Presets.lane ~seed:7 ~scale:0.01 ~rounds_to_sync:6 Presets.Ronin;
    Presets.lane ~seed:11 ~scale:0.01 ~rounds_to_sync:6 Presets.Nomad;
    Presets.lane ~rounds_to_sync:6 (Presets.Attack Report.Forged_proof);
  ]

let recovery_golden =
  Alcotest.test_case
    "split run matches uninterrupted; health table matches recovery.golden"
    `Quick (fun () ->
      let rounds = 8 and stop_at = 4 in
      (* Uninterrupted reference (also durable, so the store itself is
         proven transparent to the stream). *)
      let ref_sup = Sup.create ~state_dir:(fresh_dir ()) (golden_lanes ()) in
      ignore (Sup.run ref_sup ~rounds);
      let expected = render_fleet_stream (Sup.alerts ref_sup) in
      (* Split run: stop after [stop_at] rounds, resume from disk. *)
      let dir = fresh_dir () in
      let first = Sup.create ~state_dir:dir (golden_lanes ()) in
      let stream = ref [] and hwm = ref (-1) in
      let add fas =
        List.iter
          (fun (fa : Bus.fleet_alert) ->
            if fa.Bus.fa_seq > !hwm then begin
              stream := fa :: !stream;
              hwm := fa.Bus.fa_seq
            end)
          fas
      in
      for _ = 1 to stop_at do
        add (Sup.poll first)
      done;
      let second = Sup.create ~state_dir:dir (golden_lanes ()) in
      Alcotest.(check int) "resumed at the durable round" stop_at
        (Sup.rounds second);
      let replayed = Sup.replayed second in
      add replayed;
      while Sup.rounds second < rounds do
        add (Sup.poll second)
      done;
      Alcotest.(check string) "split emission stream identical" expected
        (render_fleet_stream (List.rev !stream));
      let render_health (h : Sup.health) =
        let buf = Buffer.create 1024 in
        Printf.bprintf buf "recovery: %d-lane fleet resumed at round %d/%d\n"
          (List.length h.Sup.fh_lanes) (stop_at + 1) rounds;
        Printf.bprintf buf "replayed %d alert(s) from round %d\n"
          (List.length replayed) stop_at;
        List.iter
          (fun (lh : Sup.lane_health) ->
            Printf.bprintf buf "lane %d %s %s polls=%d alerts=%d lag=%d\n"
              lh.Sup.lh_index lh.Sup.lh_name
              (state_name lh.Sup.lh_state)
              lh.Sup.lh_polls lh.Sup.lh_alerts lh.Sup.lh_lag)
          h.Sup.fh_lanes;
        Printf.bprintf buf "bus: emitted=%d collapsed=%d\n" h.Sup.fh_emitted
          h.Sup.fh_collapsed;
        Buffer.contents buf
      in
      check_golden ~name:"recovery" (render_health (Sup.health second)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "store"
    [
      ( "codec",
        [
          codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_crc_reference;
          QCheck_alcotest.to_alcotest prop_crc_pieces;
        ] );
      ( "wal",
        [
          wal_roundtrip;
          wal_torn_tail;
          wal_corrupt_record;
          snapshot_recovery;
          damaged_snapshot_refused;
          wal_header_flips;
          payload_only_format_opens;
          compaction_rule;
        ] );
      ("crash-store", [ store_crash_sweep ]);
      ("satellites", [ dump_facts_atomic; retry_after_clamped ]);
      ( "monitor",
        [
          monitor_resume;
          reorg_restart;
          rule_added_across_restart;
          compaction_bytes_bound;
        ] );
      ( "fleet",
        [ QCheck_alcotest.to_alcotest prop_crash_sweep; full_crash_sweep ] );
      ("golden", [ recovery_golden ]);
    ]
