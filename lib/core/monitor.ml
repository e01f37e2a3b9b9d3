(** Streaming anomaly monitoring.

    The paper's central motivation (Figure 1) is observability: the
    Ronin team noticed the March 2022 attack six days late, and even in
    2024 a bridge pause took ~40 minutes.  This module runs
    XChainWatcher continuously: it is fed block cursors as chains
    advance, decodes only the receipts it has not seen yet (decoding
    dominates cost — Table 2), re-evaluates the rules, and emits alerts
    for anomalies that were not present at the previous poll.

    Steady-state evaluation is incremental: the monitor plans its
    program once, at creation ([Engine.prepare]: checked, stratified,
    compiled, instruments resolved), keeps one persistent [Engine.db]
    across polls, loads only the freshly decoded facts, and lets
    [Engine.run_incremental] treat them as the initial semi-naive
    delta — strata untouched by the new facts do no work, and the
    non-monotonic anomaly relations (an "unmatched" deposit becomes
    matched when its completion lands) are retracted and re-derived in
    place.  The run returns what it changed, relation by relation.

    The alert scan reads the relations {!Dissect.alert_relations}
    declares and the decode errors, and nothing else that can change.
    A synced poll therefore scans only when one of those relations
    changed, or an entry carrying decode errors came or went, since the
    last scan that ran; otherwise every anomaly it would find has
    already alerted.  Unsynced polls never scan, so their changes are
    carried to the next synced poll.  A fresh database gets a full
    run, which counts every relation it evaluated as changed, so the
    first poll after creation, recovery or a reorg rewind scans, and so
    does every poll of [create ~incremental:false].

    The bookkeeping around evaluation is O(new receipts): a per-side
    receipt index extended through [Chain.receipts_from], fact and
    trace-gap counts kept on entry add and remove, and a decode-error
    list rebuilt only when an entry carrying errors comes or goes (the
    full report is built on demand by {!last_report}).  A poll that
    decodes nothing evaluates nothing, and scans only to catch up on
    what unsynced polls loaded.  What a poll that
    loads facts still pays per unit of history: the negation strata
    that [run_incremental] recomputes and diffs from scratch (8 per
    Nomad stream poll), each semi-naive occurrence's full scans of the
    literals left of its delta, and — when a declared relation changed
    — a scan that reads and sorts every anomaly relation whole.

    With a checkpoint, a poll appends one WAL record of what it decoded
    and, when the store says a compaction is due
    ({!Xcw_store.Store.compaction_due}: the WAL has grown as large as
    the last snapshot), also writes a snapshot.  A snapshot re-encodes
    no entry (each is encoded once, when first written, and its bytes
    are kept; see {!put_entry}) and builds no copy of its payload, but
    it still writes the bytes of every entry, CRCs them and fsyncs
    them; the rule makes that cost at most twice the WAL's bytes over a
    run, instead of the whole state every k-th poll.

    The database is never persisted, only what it is built from.  There
    is one way to build it, {!fresh_db}: the config facts plus every
    decoded entry's facts, at creation, after recovery, after a reorg
    rewind, and on every poll of [create ~incremental:false] (the
    original rebuild-everything behaviour, kept for comparison; see the
    [monitor_steady_state] bench).  The first poll on a fresh database
    evaluates the whole program with the monitor's plan, so a restart
    costs one full evaluation, and rules added since the snapshot see
    the whole history.

    The monitor degrades gracefully under RPC faults (see
    {!Xcw_rpc.Fault}): a receipt whose fetch or decode fails stays
    pending — the cursor never advances past unfetched data, so there
    are no silent gaps — and is retried at the next poll; a failed
    head observation skips the side for the poll and surfaces through
    {!health} instead of raising; a reorg signal rewinds the cursor
    past the replaced blocks and rebuilds the database from the
    surviving entries.  Alerts are only emitted from synced
    polls (every receipt within the requested cursors decoded), so
    transient one-sided views never cause spurious or missing
    alerts relative to a fault-free run — the differential property
    checked in [test_fault.ml]. *)

module Chain = Xcw_chain.Chain
module Types = Xcw_evm.Types
module Rpc = Xcw_rpc.Rpc
module Client = Xcw_rpc.Client
module Engine = Xcw_datalog.Engine
module Metrics = Xcw_obs.Metrics
module Span = Xcw_obs.Span

type alert = {
  al_seq : int;  (** monotone per-monitor sequence number (from 1) *)
  al_anomaly : Report.anomaly;
  al_rule : string;  (** the rule row that flagged it *)
  al_detected_at : int * int;  (** (source block, target block) cursor *)
}

(* ------------------------------------------------------------------ *)
(* Durable checkpoint handle                                           *)

module Checkpoint = struct
  module Store = Xcw_store.Store
  module Codec = Xcw_store.Codec

  type t = {
    ck_store : Store.t;
    ck_sym : Xcw_store.Symmap.t;
    mutable ck_recovered : Store.recovered option;
  }

  let open_ ?crash ~dir () =
    let store, recovered = Store.open_ ?crash ~dir () in
    {
      ck_store = store;
      ck_sym = Xcw_store.Symmap.create ();
      ck_recovered = Some recovered;
    }

  let store t = t.ck_store
  let close t = Store.close t.ck_store

  let consume t =
    match t.ck_recovered with
    | Some r ->
        t.ck_recovered <- None;
        r
    | None -> invalid_arg "Monitor.Checkpoint: already attached to a monitor"

  (* The class list fixes the wire tags; order is append-only. *)
  let anomaly_classes =
    Report.
      [
        Phishing_token_transfer; Direct_transfer_to_bridge;
        Unparseable_beneficiary; Failed_exploit_attempt; Event_without_escrow;
        Finality_violation; Token_mapping_violation; Invalid_beneficiary_fp;
        No_correspondence; Pre_window_fp;
        (* PR 10: exit-bridge accounting classes, tags 10-14. *)
        Accounting Stale_root_claim; Accounting Forged_exit_proof;
        Accounting Root_divergence; Accounting Exit_net_outflow;
        Accounting Slashing_evasion;
      ]

  let class_tag c =
    let rec go i = function
      | [] -> assert false
      | c' :: tl -> if c' = c then i else go (i + 1) tl
    in
    go 0 anomaly_classes

  let class_of_tag tag =
    match List.nth_opt anomaly_classes tag with
    | Some c -> c
    | None ->
        raise (Codec.R.Corrupt (Printf.sprintf "anomaly class tag %d" tag))

  let put_anomaly b (a : Report.anomaly) =
    Codec.W.int b (class_tag a.Report.a_class);
    Codec.W.str b a.Report.a_tx_hash;
    Codec.W.int b a.Report.a_chain_id;
    Codec.W.float b a.Report.a_usd_value;
    Codec.W.str b a.Report.a_detail

  let get_anomaly r =
    let a_class = class_of_tag (Codec.R.int r) in
    let a_tx_hash = Codec.R.str r in
    let a_chain_id = Codec.R.int r in
    let a_usd_value = Codec.R.float r in
    let a_detail = Codec.R.str r in
    { Report.a_class; a_tx_hash; a_chain_id; a_usd_value; a_detail }

  let put_alert b (al : alert) =
    Codec.W.int b al.al_seq;
    Codec.W.str b al.al_rule;
    put_anomaly b al.al_anomaly;
    let sb, tb = al.al_detected_at in
    Codec.W.int b sb;
    Codec.W.int b tb

  let get_alert r =
    let al_seq = Codec.R.int r in
    let al_rule = Codec.R.str r in
    let al_anomaly = get_anomaly r in
    let sb = Codec.R.int r in
    let tb = Codec.R.int r in
    { al_seq; al_anomaly; al_rule; al_detected_at = (sb, tb) }
end

(* ------------------------------------------------------------------ *)
(* Receipt cursor                                                      *)

(* A plain "receipts decoded so far" counter is wrong when the receipt
   list is not strictly block-ordered: filtering the suffix by
   [r_block_number <= up_to_block] and then advancing the counter by
   the number of matches silently skips — forever — any receipt that
   sits below the counter but above the block cursor.  The cursor
   therefore tracks the fully-decoded prefix plus the exact set of
   decoded indices beyond it. *)
module Cursor = struct
  type t = {
    mutable c_prefix : int;  (** receipts [0, c_prefix) are decoded *)
    c_decoded : (int, unit) Hashtbl.t;  (** decoded indices >= prefix *)
  }

  let create () = { c_prefix = 0; c_decoded = Hashtbl.create 16 }

  let normalize t =
    while Hashtbl.mem t.c_decoded t.c_prefix do
      Hashtbl.remove t.c_decoded t.c_prefix;
      t.c_prefix <- t.c_prefix + 1
    done

  let is_decoded t i = i < t.c_prefix || Hashtbl.mem t.c_decoded i

  (** Not-yet-decoded indices (ascending) whose block is within the
      cursor; does not mark anything. *)
  let candidates t ~block_of ~len ~up_to =
    let out = ref [] in
    for i = t.c_prefix to len - 1 do
      if (not (Hashtbl.mem t.c_decoded i)) && block_of i <= up_to then
        out := i :: !out
    done;
    List.rev !out

  let mark t i =
    if i >= t.c_prefix then begin
      Hashtbl.replace t.c_decoded i ();
      normalize t
    end

  (** [take t ~block_of ~len ~up_to] returns the indices (ascending) of
      receipts that are not yet decoded and whose block is within the
      cursor, marking them decoded. *)
  let take t ~block_of ~len ~up_to =
    let fresh = candidates t ~block_of ~len ~up_to in
    List.iter (fun i -> Hashtbl.replace t.c_decoded i ()) fresh;
    normalize t;
    fresh

  (** Forget every decoded index whose block is above [above] — the
      reorg rewind: those receipts will be decoded again when the
      (possibly different) replacement blocks are served. *)
  let rewind t ~block_of ~above =
    let decoded = ref [] in
    for i = 0 to t.c_prefix - 1 do
      decoded := i :: !decoded
    done;
    Hashtbl.iter (fun i () -> decoded := i :: !decoded) t.c_decoded;
    Hashtbl.reset t.c_decoded;
    t.c_prefix <- 0;
    List.iter
      (fun i -> if block_of i <= above then Hashtbl.replace t.c_decoded i ())
      !decoded;
    normalize t

  let decoded_count t = t.c_prefix + Hashtbl.length t.c_decoded
end

(* ------------------------------------------------------------------ *)

(* Everything decoded from one receipt, kept so a reorg rewind can
   rebuild the database and the report's decode errors from scratch. *)
type entry = {
  e_block : int;
  e_facts : Facts.t list;
  e_errors : Decoder.decode_error list;
  e_trace_gap : bool;
  mutable e_enc : string option;
      (** the entry's checkpoint encoding, index included; made by the
          first WAL record or snapshot that writes it (see
          {!put_entry}) *)
}

type side = {
  sd_chain : Chain.t;
  sd_role : Decoder.chain_role;
  sd_client : Client.t;
  sd_cursor : Cursor.t;
  sd_entries : (int, entry) Hashtbl.t;  (** receipt index -> decode *)
  mutable sd_requested : int;  (** highest block cursor ever requested *)
  mutable sd_receipts : Types.receipt array;
      (** the chain's receipts [0, sd_len) in chain order, extended by
          {!sync_receipts}; capacity grows by doubling *)
  mutable sd_len : int;
  (* Kept in step with [sd_entries] by [add_entry]/[remove_entry], so
     gauges and [health] never fold over the history. *)
  mutable sd_facts : int;
  mutable sd_trace_gaps : int;
  mutable sd_errors : Decoder.decode_error list option;
      (** decode errors in receipt order; [None] after an entry carrying
          errors was added or removed *)
  mutable sd_errors_moved : bool;
      (** an entry carrying errors was added or removed since the last
          alert scan *)
}

type health = {
  h_synced : bool;
      (** every receipt within the requested cursors is decoded *)
  h_pending_source : int;  (** receipts awaiting (re)decode on S *)
  h_pending_target : int;
  h_trace_gaps : int;  (** receipts decoded without the call tracer *)
  h_give_ups : int;  (** client requests that exhausted retries *)
  h_reorgs : int;  (** reorg signals handled *)
  h_last_error : string option;  (** most recent RPC failure seen *)
}

(* Monitor-level instruments, resolved once at creation. *)
type monitor_obs = {
  mo_reg : Metrics.t;
  mo_polls : Metrics.Counter.t;
  mo_alerts : Metrics.Counter.t;
  mo_reorgs : Metrics.Counter.t;
  mo_poll_seconds : Metrics.Histogram.t;
  mo_scans_run : Metrics.Counter.t;
  mo_scans_skipped : Metrics.Counter.t;
  mo_synced : Metrics.Gauge.t;
  mo_pending_src : Metrics.Gauge.t;
  mo_pending_dst : Metrics.Gauge.t;
  mo_facts : Metrics.Gauge.t;
  mo_wal_bytes : Metrics.Counter.t;
  mo_snapshot_bytes : Metrics.Counter.t;
  mo_snapshots : Metrics.Counter.t;
}

type t = {
  m_input : Detector.input;
  m_src : side;
  m_dst : side;
  m_incremental : bool;
  m_metrics : Metrics.t;
  m_obs : monitor_obs;
  m_plan : Engine.plan;  (** the input's program, planned once *)
  (* Persistent Datalog database for incremental evaluation; built by
     [fresh_db] at creation and again after a reorg rewind. *)
  mutable m_db : Engine.db;
  (* A relation of [Dissect.alert_relations] changed since the last
     alert scan ran: unsynced polls do not scan, so their changes wait
     here for the next synced one. *)
  mutable m_scan_due : bool;
  (* Anomaly keys already alerted: (rule, class name, tx hash). *)
  m_known : (string * string * string, unit) Hashtbl.t;
  mutable m_polls : int;
  (* The database as of the last poll whose rule evaluation completed;
     [None] while a poll is updating it, so a poll that raises leaves
     nothing half-updated for {!last_report} to dissect. *)
  mutable m_evaluated : Engine.db option;
  mutable m_reorgs : int;
  mutable m_last_error : string option;
  (* Durable-state extension (PR 9): per-poll WAL + snapshots. *)
  m_ckpt : Checkpoint.t option;
  mutable m_seq : int;  (** last alert sequence number assigned *)
  mutable m_replay : alert list;
      (** alerts of the most recent durable WAL record — after recovery,
          the tail a consumer must dedup by [al_seq] *)
}

let make_side ~input ~role ~chain ~profile ~fault ~endpoint_faults ~seed
    ~metrics =
  {
    sd_chain = chain;
    sd_role = role;
    sd_client =
      (* Same construction as the batch detector: single endpoint, or a
         Byzantine-tolerant quorum pool when i_endpoints > 1.  The
         cursor then only ever advances past quorum-verified data, and
         a degraded quorum (refusals) keeps receipts pending — the
         synced-only alerting path of PR 2 applies unchanged. *)
      Detector.build_client ~metrics ~profile ~seed
        ~policy:input.Detector.i_client_policy
        ~endpoints:input.Detector.i_endpoints ~quorum:input.Detector.i_quorum
        ~fault ~endpoint_faults chain;
    sd_cursor = Cursor.create ();
    sd_entries = Hashtbl.create 64;
    sd_requested = 0;
    sd_receipts = [||];
    sd_len = 0;
    sd_facts = 0;
    sd_trace_gaps = 0;
    sd_errors = Some [];
    sd_errors_moved = false;
  }

let make_obs reg =
  {
    mo_reg = reg;
    mo_polls = Metrics.counter reg "xcw_monitor_polls_total";
    mo_alerts = Metrics.counter reg "xcw_monitor_alerts_total";
    mo_reorgs = Metrics.counter reg "xcw_monitor_reorgs_total";
    mo_poll_seconds = Metrics.histogram reg "xcw_monitor_poll_seconds";
    mo_scans_run =
      Metrics.counter reg ~labels:[ ("outcome", "run") ]
        "xcw_monitor_alert_scans_total";
    mo_scans_skipped =
      Metrics.counter reg ~labels:[ ("outcome", "skipped") ]
        "xcw_monitor_alert_scans_total";
    mo_synced = Metrics.gauge reg "xcw_monitor_synced";
    mo_pending_src =
      Metrics.gauge reg ~labels:[ ("side", "source") ] "xcw_monitor_pending";
    mo_pending_dst =
      Metrics.gauge reg ~labels:[ ("side", "target") ] "xcw_monitor_pending";
    mo_facts = Metrics.gauge reg "xcw_monitor_facts_cached";
    mo_wal_bytes =
      Metrics.counter reg ~labels:[ ("kind", "wal") ]
        "xcw_monitor_checkpoint_bytes_total";
    mo_snapshot_bytes =
      Metrics.counter reg ~labels:[ ("kind", "snapshot") ]
        "xcw_monitor_checkpoint_bytes_total";
    mo_snapshots = Metrics.counter reg "xcw_monitor_snapshots_total";
  }

let indexed_entries s =
  Hashtbl.fold (fun i e acc -> (i, e) :: acc) s.sd_entries []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let sorted_entries s = List.map snd (indexed_entries s)

let remove_entry s i =
  match Hashtbl.find_opt s.sd_entries i with
  | None -> ()
  | Some e ->
      Hashtbl.remove s.sd_entries i;
      s.sd_facts <- s.sd_facts - List.length e.e_facts;
      if e.e_trace_gap then s.sd_trace_gaps <- s.sd_trace_gaps - 1;
      if e.e_errors <> [] then begin
        s.sd_errors <- None;
        s.sd_errors_moved <- true
      end

let add_entry s i e =
  remove_entry s i;
  Hashtbl.replace s.sd_entries i e;
  s.sd_facts <- s.sd_facts + List.length e.e_facts;
  if e.e_trace_gap then s.sd_trace_gaps <- s.sd_trace_gaps + 1;
  if e.e_errors <> [] then begin
    s.sd_errors <- None;
    s.sd_errors_moved <- true
  end

let side_errors s =
  match s.sd_errors with
  | Some errors -> errors
  | None ->
      let errors = List.concat_map (fun e -> e.e_errors) (sorted_entries s) in
      s.sd_errors <- Some errors;
      errors

(* Facts of every decoded receipt, source side first, receipt order —
   the same order the batch detector produces them in. *)
let all_entry_facts t =
  List.concat_map (fun e -> e.e_facts) (sorted_entries t.m_src)
  @ List.concat_map (fun e -> e.e_facts) (sorted_entries t.m_dst)

let all_decode_errors t = side_errors t.m_src @ side_errors t.m_dst
let facts_cached t = t.m_src.sd_facts + t.m_dst.sd_facts

(* The monitor's one way to build a database: the config facts and
   every decoded entry's facts.  Nothing is evaluated yet; the next
   [run_incremental] treats the whole load as its delta. *)
let fresh_db t =
  let db = Engine.create_db () in
  ignore (Facts.load_all db (Config.to_facts t.m_input.Detector.i_config));
  ignore (Facts.load_all db (all_entry_facts t));
  db

(* ------------------------------------------------------------------ *)
(* Durable state codec                                                 *)

(* WAL record layout (one per poll), after the symbol section:
   polls, reorgs, last_error, seq, then per side (source first)
   the requested cursor + removed entry indices + added entries, then
   the alerts emitted by the poll.  Snapshots reuse the same layout
   with removed = [] and added = every entry, and end with the
   already-alerted key set.  Nothing derived is written: recovery
   rebuilds the database from the entries ({!fresh_db}).  Fact tuples
   go through the store-local {!Xcw_store.Symmap} so persisted cells
   re-pack identically no matter what the process intern table looks
   like after restart. *)

module CW = Xcw_store.Codec.W
module CR = Xcw_store.Codec.R
module Symmap = Xcw_store.Symmap

let put_fact sym b fact =
  let pred, tuple = Facts.to_packed fact in
  CW.int b (Symmap.encode_cell sym (Xcw_datalog.Ast.pack_string pred));
  CW.int b (Array.length tuple);
  Array.iter (fun c -> CW.int b (Symmap.encode_cell sym c)) tuple

let get_fact sym r =
  let pred =
    match Xcw_datalog.Ast.unpack (Symmap.decode_cell sym (CR.int r)) with
    | Xcw_datalog.Ast.Str s -> s
    | Xcw_datalog.Ast.Int _ -> raise (CR.Corrupt "fact predicate is an int")
  in
  let n = CR.int r in
  if n < 0 || n > 64 then raise (CR.Corrupt "fact arity out of range");
  let tuple = Array.make n 0 in
  for i = 0 to n - 1 do
    tuple.(i) <- Symmap.decode_cell sym (CR.int r)
  done;
  match Facts.of_packed pred tuple with
  | Some f -> f
  | None -> raise (CR.Corrupt ("fact layout for relation " ^ pred))

let put_error b (e : Decoder.decode_error) =
  CW.str b e.Decoder.err_tx_hash;
  CW.int b e.Decoder.err_chain_id;
  CW.int b e.Decoder.err_event_index;
  CW.str b e.Decoder.err_detail;
  match e.Decoder.err_withdrawal_id with
  | None -> CW.bool b false
  | Some w ->
      CW.bool b true;
      CW.int b w

let get_error r =
  let err_tx_hash = CR.str r in
  let err_chain_id = CR.int r in
  let err_event_index = CR.int r in
  let err_detail = CR.str r in
  let err_withdrawal_id = if CR.bool r then Some (CR.int r) else None in
  { Decoder.err_tx_hash; err_chain_id; err_event_index; err_detail;
    err_withdrawal_id }

(* An entry is encoded once, by the first WAL record or snapshot that
   writes it; later writes append the cached bytes.  They stay valid
   because a store assigns each symbol id once and never renumbers it
   (recovery re-registers the ids in the same order), and writers visit
   entries in the order re-encoding would, so no id is assigned in a
   different order either.  A reorg that drops the entry drops its
   bytes with it. *)
let put_entry sym b i e =
  match e.e_enc with
  | Some enc -> Buffer.add_string b enc
  | None ->
      let start = Buffer.length b in
      CW.int b i;
      CW.int b e.e_block;
      CW.list b (put_fact sym b) e.e_facts;
      CW.list b (put_error b) e.e_errors;
      CW.bool b e.e_trace_gap;
      e.e_enc <- Some (Buffer.sub b start (Buffer.length b - start))

let entry_bytes sym i e =
  if Option.is_none e.e_enc then put_entry sym (CW.create ()) i e;
  Option.get e.e_enc

let get_entry sym r =
  let i = CR.int r in
  let e_block = CR.int r in
  let e_facts = CR.list r (fun () -> get_fact sym r) in
  let e_errors = CR.list r (fun () -> get_error r) in
  let e_trace_gap = CR.bool r in
  (i, { e_block; e_facts; e_errors; e_trace_gap; e_enc = None })

(* A side's fields up to its added entries, which follow it. *)
let put_side_head b s ~removed ~added =
  CW.int b s.sd_requested;
  CW.list b (CW.int b) removed;
  CW.int b added

let apply_side sym r s =
  s.sd_requested <- CR.int r;
  List.iter (remove_entry s) (CR.list r (fun () -> CR.int r));
  List.iter
    (fun (i, e) -> add_entry s i e)
    (CR.list r (fun () -> get_entry sym r))

let put_head t b =
  CW.int b t.m_polls;
  CW.int b t.m_reorgs;
  CW.opt_str b t.m_last_error;
  CW.int b t.m_seq

let apply_state t ck r =
  t.m_polls <- CR.int r;
  t.m_reorgs <- CR.int r;
  t.m_last_error <- CR.opt_str r;
  t.m_seq <- CR.int r;
  apply_side ck.Checkpoint.ck_sym r t.m_src;
  apply_side ck.Checkpoint.ck_sym r t.m_dst;
  let alerts = CR.list r (fun () -> Checkpoint.get_alert r) in
  t.m_replay <- alerts;
  (* A record's already-alerted additions are its alerts; a snapshot
     carries the full key set explicitly. *)
  List.iter
    (fun al ->
      Hashtbl.replace t.m_known
        ( al.al_rule,
          Report.class_name al.al_anomaly.Report.a_class,
          al.al_anomaly.Report.a_tx_hash )
        ())
    alerts;
  if CR.bool r then
    List.iter
      (fun key -> Hashtbl.replace t.m_known key ())
      (CR.list r (fun () ->
           let ru = CR.str r in
           let cl = CR.str r in
           let tx = CR.str r in
           (ru, cl, tx)))

(* The symbol section that opens a payload: the strings given store ids
   while encoding the body, so the decoder can bind them before the
   first cell that uses them. *)
let symbol_section syms =
  let b = CW.create () in
  CW.list b (CW.str b) syms;
  Buffer.contents b

let encode_record t ck ~src ~dst ~alerts =
  let sym = ck.Checkpoint.ck_sym in
  let body = CW.create () in
  put_head t body;
  List.iter
    (fun (s, (removed, added)) ->
      put_side_head body s ~removed ~added:(List.length added);
      List.iter (fun (i, e) -> put_entry sym body i e) added)
    [ (t.m_src, src); (t.m_dst, dst) ];
  CW.list body (Checkpoint.put_alert body) alerts;
  (* No key set: a record's already-alerted keys are its alerts. *)
  CW.bool body false;
  symbol_section (Symmap.take_fresh sym) ^ Buffer.contents body

(* The snapshot payload as pieces for {!Xcw_store.Store.snapshot}: the
   whole symbol table, the state head, each side's head and its
   entries' cached bytes in index order, then the alerts and the
   already-alerted key set. *)
let encode_snapshot t ck =
  let sym = ck.Checkpoint.ck_sym in
  let side s =
    let entries = indexed_entries s in
    let b = CW.create () in
    put_side_head b s ~removed:[] ~added:(List.length entries);
    Buffer.contents b :: List.map (fun (i, e) -> entry_bytes sym i e) entries
  in
  let head = CW.create () in
  put_head t head;
  let src = side t.m_src in
  let dst = side t.m_dst in
  let tail = CW.create () in
  CW.list tail (Checkpoint.put_alert tail) t.m_replay;
  CW.bool tail true;
  CW.list tail
    (fun (ru, cl, tx) ->
      CW.str tail ru;
      CW.str tail cl;
      CW.str tail tx)
    (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) t.m_known []));
  (* The full table below covers every id the body just assigned. *)
  ignore (Symmap.take_fresh sym);
  (symbol_section (Symmap.dump sym) :: Buffer.contents head :: src)
  @ dst @ [ Buffer.contents tail ]

(* A payload is read up to its already-alerted key set; bytes after it
   are ignored (snapshots once carried derived relations there). *)
let apply_payload t ck payload =
  let r = CR.of_string payload in
  List.iter
    (Symmap.register ck.Checkpoint.ck_sym)
    (CR.list r (fun () -> CR.str r));
  apply_state t ck r

(* Recovery restores what the monitor decoded and nothing it derived:
   the snapshot, then the WAL tail, applied to the entries in order.
   {!create} then builds the database from them with {!fresh_db}, as a
   reorg rewind does. *)
let recover t ck =
  let { Xcw_store.Store.r_snapshot; r_records; r_truncated_bytes = _ } =
    Checkpoint.consume ck
  in
  Option.iter (apply_payload t ck) r_snapshot;
  List.iter (fun (_idx, p) -> apply_payload t ck p) r_records;
  (* The cursor invariant is "decoded set = entry keys": rebuild it
     from the restored entries rather than replaying cursor motion. *)
  let rebuild s = Hashtbl.iter (fun i _ -> Cursor.mark s.sd_cursor i) s.sd_entries in
  rebuild t.m_src;
  rebuild t.m_dst

let create ?(incremental = true) ?metrics ?checkpoint (input : Detector.input)
    : t =
  Engine.recommended_gc_setup ();
  let metrics =
    match metrics with Some m -> m | None -> Metrics.default ()
  in
  let t =
    {
      m_input = input;
      m_src =
        make_side ~input ~role:Decoder.Source
          ~chain:input.Detector.i_source_chain
          ~profile:input.Detector.i_source_profile
          ~fault:input.Detector.i_source_fault
          ~endpoint_faults:input.Detector.i_source_endpoint_faults
          ~seed:input.Detector.i_rpc_seed ~metrics;
      m_dst =
        make_side ~input ~role:Decoder.Target
          ~chain:input.Detector.i_target_chain
          ~profile:input.Detector.i_target_profile
          ~fault:input.Detector.i_target_fault
          ~endpoint_faults:input.Detector.i_target_endpoint_faults
          ~seed:(input.Detector.i_rpc_seed + 1) ~metrics;
      m_incremental = incremental;
      m_metrics = metrics;
      m_obs = make_obs metrics;
      m_plan =
        Engine.prepare ~metrics ~aggregates:Rules.aggregates
          input.Detector.i_program;
      m_db = Engine.create_db () (* built below, after recovery *);
      m_scan_due = false;
      m_known = Hashtbl.create 256;
      m_polls = 0;
      m_evaluated = None;
      m_reorgs = 0;
      m_last_error = None;
      m_ckpt = checkpoint;
      m_seq = 0;
      m_replay = [];
    }
  in
  Option.iter (recover t) checkpoint;
  t.m_db <- fresh_db t;
  t

(* Extend the receipt index by the receipts the chain gained since the
   previous call: O(new receipts), where re-listing the chain is
   O(history). *)
let sync_receipts s =
  match Chain.receipts_from s.sd_chain s.sd_len with
  | [] -> ()
  | fresh ->
      let len = s.sd_len + List.length fresh in
      if len > Array.length s.sd_receipts then begin
        let grown =
          Array.make (max len (2 * Array.length s.sd_receipts)) (List.hd fresh)
        in
        Array.blit s.sd_receipts 0 grown 0 s.sd_len;
        s.sd_receipts <- grown
      end;
      List.iteri (fun j r -> s.sd_receipts.(s.sd_len + j) <- r) fresh;
      s.sd_len <- len

let block_of s i = s.sd_receipts.(i).Types.r_block_number

let pending_count s =
  sync_receipts s;
  Cursor.candidates s.sd_cursor ~block_of:(block_of s) ~len:s.sd_len
    ~up_to:s.sd_requested
  |> List.length

(* Advance one side: observe the node's head (which may lag or signal a
   reorg), rewind on reorg, then decode every not-yet-decoded receipt
   the node can currently serve.  Receipts whose fetch or decode fails
   stay unmarked and are retried next poll — the cursor never moves
   past data we do not have.  Returns the freshly decoded facts,
   whether a rewind invalidated previously loaded facts, and the
   removed/added entry delta for the durable WAL record. *)
let poll_side t s ~up_to_block =
  s.sd_requested <- max s.sd_requested up_to_block;
  let head_resp = Client.observe_head s.sd_client ~head:up_to_block in
  match head_resp.Rpc.value with
  | Error e ->
      t.m_last_error <- Some (Rpc.error_to_string e);
      ([], false, [], [])
  | Ok hv ->
      sync_receipts s;
      let rewound, removed =
        match hv.Rpc.hv_reorged_to with
        | None -> (false, [])
        | Some surviving ->
            t.m_reorgs <- t.m_reorgs + 1;
            Metrics.Counter.inc t.m_obs.mo_reorgs;
            let dropped =
              Hashtbl.fold
                (fun i e acc -> if e.e_block > surviving then i :: acc else acc)
                s.sd_entries []
            in
            if dropped = [] then (false, [])
            else begin
              List.iter (remove_entry s) dropped;
              Cursor.rewind s.sd_cursor ~block_of:(block_of s) ~above:surviving;
              (true, dropped)
            end
      in
      let chain_id = s.sd_chain.Chain.chain_id in
      let added = ref [] in
      let fresh =
        Cursor.candidates s.sd_cursor ~block_of:(block_of s) ~len:s.sd_len
          ~up_to:hv.Rpc.hv_head
        |> List.concat_map (fun i ->
               let r = s.sd_receipts.(i) in
               let fetch = Client.get_receipt s.sd_client r.Types.r_tx_hash in
               match fetch.Rpc.value with
               | Error e ->
                   t.m_last_error <- Some (Rpc.error_to_string e);
                   []
               | Ok _ -> (
                   match
                     Decoder.decode_receipt t.m_input.Detector.i_plugin
                       t.m_input.Detector.i_config ~role:s.sd_role ~chain_id
                       s.sd_client r
                   with
                   | Error e ->
                       t.m_last_error <- Some (Rpc.error_to_string e);
                       []
                   | Ok rd ->
                       Cursor.mark s.sd_cursor i;
                       let entry =
                         {
                           e_block = r.Types.r_block_number;
                           e_facts = rd.Decoder.rd_facts;
                           e_errors = rd.Decoder.rd_errors;
                           e_trace_gap = rd.Decoder.rd_trace_gap;
                           e_enc = None;
                         }
                       in
                       add_entry s i entry;
                       added := (i, entry) :: !added;
                       rd.Decoder.rd_facts))
      in
      (fresh, rewound, removed, List.rev !added)

(* The alert scan: every anomaly of the rule and accounting rows not
   alerted before becomes an alert.  Only the rows an alert can come
   from are built: the cctx dataset and the attack tables grow with the
   history and are built on demand by {!last_report}. *)
let scan t ~source_block ~target_block db =
  let rows, acc_rows =
    Dissect.alert_rows ~config:t.m_input.Detector.i_config
      ~pricing:t.m_input.Detector.i_pricing
      ~first_window_withdrawal_id:t.m_input.Detector.i_first_window_withdrawal_id
      ~decode_errors:(all_decode_errors t) ~db
  in
  (* Accounting hits alert through the same dedup/sequence machinery as
     rule rows: each becomes an anomaly of class [Accounting xr_class],
     keyed by its accounting relation. *)
  let acc_anomalies row =
    let cls = Report.Accounting row.Report.xr_class in
    List.map
      (fun h ->
        {
          Report.a_class = cls;
          a_tx_hash = h.Report.ah_tx_hash;
          a_chain_id = h.Report.ah_chain_id;
          a_usd_value = h.Report.ah_usd_value;
          a_detail = h.Report.ah_detail;
        })
      row.Report.xr_hits
  in
  List.map (fun row -> (row.Report.rr_rule, row.Report.rr_anomalies)) rows
  @ List.map (fun row -> (row.Report.xr_rule, acc_anomalies row)) acc_rows
  |> List.concat_map (fun (rule, anomalies) ->
         List.filter_map
           (fun a ->
             let key =
               (rule, Report.class_name a.Report.a_class, a.Report.a_tx_hash)
             in
             if Hashtbl.mem t.m_known key then None
             else begin
               Hashtbl.replace t.m_known key ();
               t.m_seq <- t.m_seq + 1;
               Some
                 {
                   al_seq = t.m_seq;
                   al_anomaly = a;
                   al_rule = rule;
                   al_detected_at = (source_block, target_block);
                 }
             end)
           anomalies)

(** Advance the monitor to the given block cursors; returns alerts for
    anomalies that appeared since the previous poll.  Under fault
    injection a poll may return no alerts simply because one side is
    behind — consult {!health}; the alerts arrive once the monitor
    catches up. *)
let rec poll t ~source_block ~target_block : alert list =
  t.m_polls <- t.m_polls + 1;
  let obs = t.m_obs in
  Metrics.Counter.inc obs.mo_polls;
  let live = Metrics.enabled obs.mo_reg in
  let t0 = if live then Unix.gettimeofday () else 0. in
  let alerts, ps, pd =
    Span.with_
      ~attrs:
        [
          ("source_block", string_of_int source_block);
          ("target_block", string_of_int target_block);
        ]
      "monitor.poll"
      (fun () -> poll_body t ~source_block ~target_block)
  in
  if live then begin
    Metrics.Histogram.observe obs.mo_poll_seconds (Unix.gettimeofday () -. t0);
    Metrics.Gauge.set obs.mo_pending_src (float_of_int ps);
    Metrics.Gauge.set obs.mo_pending_dst (float_of_int pd);
    Metrics.Gauge.set obs.mo_synced (if ps = 0 && pd = 0 then 1. else 0.);
    Metrics.Gauge.set obs.mo_facts (float_of_int (facts_cached t))
  end;
  Metrics.Counter.add obs.mo_alerts (List.length alerts);
  alerts

(* Returns the poll's alerts and its pending receipt counts (source,
   target). *)
and poll_body t ~source_block ~target_block =
  t.m_evaluated <- None;
  let src_fresh, src_rewound, src_removed, src_added =
    poll_side t t.m_src ~up_to_block:source_block
  in
  let dst_fresh, dst_rewound, dst_removed, dst_added =
    poll_side t t.m_dst ~up_to_block:target_block
  in
  let rewound = src_rewound || dst_rewound in
  let db =
    if not t.m_incremental then
      (* From-scratch reference mode: rebuild the full database. *)
      fresh_db t
    else begin
      if rewound then
        (* Facts from replaced blocks are gone: rebuild the persistent
           database from the surviving entries; the run below
           re-derives everything. *)
        t.m_db <- fresh_db t
      else
        (* Load only the delta; strata unaffected by the fresh facts
           are skipped by the engine. *)
        ignore (Facts.load_all t.m_db (src_fresh @ dst_fresh));
      t.m_db
    end
  in
  (* A fresh database gets a full run, which counts every relation it
     evaluated as changed: the first poll after creation, recovery or a
     rewind, and every from-scratch poll, scans. *)
  let _, changes =
    Engine.run_incremental ~ndomains:t.m_input.Detector.i_ndomains t.m_plan db
  in
  if List.exists (Engine.changed changes) Dissect.alert_relations then
    t.m_scan_due <- true;
  t.m_evaluated <- Some db;
  let pending_src = pending_count t.m_src in
  let pending_dst = pending_count t.m_dst in
  (* Only a synced poll emits alerts: when a side is behind (faults,
     head lag), the database holds a partial cross-chain view whose
     transient unmatched anomalies would both false-alert now and
     poison [m_known] against the real alert later.  Clean runs are
     always synced, so this changes nothing fault-free.  A synced poll
     scans only when what the scan reads has changed since the last
     scan: otherwise every anomaly it would find is already in
     [m_known]. *)
  let alerts =
    if pending_src > 0 || pending_dst > 0 then []
    else if
      not (t.m_scan_due || t.m_src.sd_errors_moved || t.m_dst.sd_errors_moved)
    then begin
      Metrics.Counter.inc t.m_obs.mo_scans_skipped;
      []
    end
    else begin
      let alerts = scan t ~source_block ~target_block db in
      t.m_scan_due <- false;
      t.m_src.sd_errors_moved <- false;
      t.m_dst.sd_errors_moved <- false;
      Metrics.Counter.inc t.m_obs.mo_scans_run;
      alerts
    end
  in
  (* Durability point: the record (cursor delta + alert seqs) hits the
     WAL before the alerts are released to the caller, so a crash can
     only lose alerts the caller never saw — recovery re-offers the
     last record's alerts through {!replayed} and the caller dedups by
     [al_seq], which is exactly-once emission across the crash. *)
  (match t.m_ckpt with
  | None -> ()
  | Some ck ->
      let module Store = Xcw_store.Store in
      let store = ck.Checkpoint.ck_store and obs = t.m_obs in
      let payload =
        encode_record t ck
          ~src:(src_removed, src_added)
          ~dst:(dst_removed, dst_added)
          ~alerts
      in
      let appended = Store.appended_bytes store in
      ignore (Store.append store payload);
      Metrics.Counter.add obs.mo_wal_bytes
        (Store.appended_bytes store - appended);
      t.m_replay <- alerts;
      if Store.compaction_due store then begin
        Store.snapshot store (encode_snapshot t ck);
        Metrics.Counter.inc obs.mo_snapshots;
        Metrics.Counter.add obs.mo_snapshot_bytes (Store.snapshot_bytes store)
      end);
  (alerts, pending_src, pending_dst)

let health t =
  let pending_src = pending_count t.m_src in
  let pending_dst = pending_count t.m_dst in
  let give_ups s = (Client.stats s.sd_client).Client.s_give_ups in
  {
    h_synced = pending_src = 0 && pending_dst = 0;
    h_pending_source = pending_src;
    h_pending_target = pending_dst;
    h_trace_gaps = t.m_src.sd_trace_gaps + t.m_dst.sd_trace_gaps;
    h_give_ups = give_ups t.m_src + give_ups t.m_dst;
    h_reorgs = t.m_reorgs;
    h_last_error = t.m_last_error;
  }

let pools t =
  match (Client.pool t.m_src.sd_client, Client.pool t.m_dst.sd_client) with
  | Some sp, Some dp -> Some (sp, dp)
  | _ -> None

let pool_health t =
  match pools t with
  | Some (sp, dp) -> Some (Xcw_rpc.Pool.health sp, Xcw_rpc.Pool.health dp)
  | None -> None

let rpc_seconds t =
  Client.total_latency t.m_src.sd_client
  +. Client.total_latency t.m_dst.sd_client

let last_report t =
  Option.map
    (fun db ->
      (* Match the detector's [total_facts] semantics — the EDB loaded
         into the engine, not the post-evaluation tuple count (the
         incremental db also carries every derived tuple). *)
      let total_facts =
        List.fold_left
          (fun acc p -> acc - Engine.fact_count db p)
          (Engine.total_tuples db) (Engine.derived_predicates db)
      in
      Dissect.dissect ~label:t.m_input.Detector.i_label
        ~config:t.m_input.Detector.i_config ~pricing:t.m_input.Detector.i_pricing
        ~first_window_withdrawal_id:
          t.m_input.Detector.i_first_window_withdrawal_id
        ~decode_errors:(all_decode_errors t) ~db ~total_facts ())
    t.m_evaluated

let polls t = t.m_polls
let replayed t = t.m_replay
let alert_seq t = t.m_seq
let cached_facts t = all_entry_facts t
let metrics_snapshot t = Metrics.snapshot t.m_metrics
