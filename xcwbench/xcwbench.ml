(* xcwbench: the watcher benchmark.

   One process runs one workload as a closed loop: a single generator in
   this process builds a scenario from --seed, hands the program under
   test only the generated chains, waits for each call to return, then
   issues the next.  A run is a fixed number of identical reps (set-up,
   then a fixed sequence of timed operations), and every metric is taken
   over whole reps.  README.md in this directory explains the workloads,
   the metrics and which end-to-end metric each layer metric should
   move.

   Usage:
     xcwbench --workload W --seed N --seconds S --trace 0|1 [--smoke]

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones, measured with the program's default
   metrics registry and tracer exactly as [xcw] runs; with --trace 1 they
   are the per-layer ones, read from bench-owned spans around each call
   into a layer and from the program's own metrics registry.  Exit code
   0 iff every correctness check held; 2 on a bad command line. *)

module U256 = Xcw_uint256.Uint256
module Address = Xcw_evm.Address
module Types = Xcw_evm.Types
module Chain = Xcw_chain.Chain
module Bridge = Xcw_bridge.Bridge
module Fault = Xcw_rpc.Fault
module Client = Xcw_rpc.Client
module Engine = Xcw_datalog.Engine
module Config = Xcw_core.Config
module Decoder = Xcw_core.Decoder
module Detector = Xcw_core.Detector
module Dissect = Xcw_core.Dissect
module Facts = Xcw_core.Facts
module Monitor = Xcw_core.Monitor
module Report = Xcw_core.Report
module Rules = Xcw_core.Rules
module Scenario = Xcw_workload.Scenario
module Presets = Xcw_fleet.Presets
module Sup = Xcw_fleet.Supervisor
module Bus = Xcw_fleet.Bus
module Metrics = Xcw_obs.Metrics
module Span = Xcw_obs.Span
module Stats = Xcw_util.Stats
module Json = Xcw_util.Json

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let workloads =
  [ "batch-ronin"; "stream-nomad"; "stream-durable"; "fleet-mixed" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
}

let usage_error msg =
  Printf.eprintf
    "xcwbench: %s\n\
     usage: xcwbench --workload {%s} --seed N --seconds S --trace 0|1 \
     [--smoke]\n"
    msg
    (String.concat "|" workloads);
  exit 2

let parse_args argv =
  let fail fmt = Printf.ksprintf usage_error fmt in
  let rec go a = function
    | [] -> a
    | "--smoke" :: rest -> go { a with smoke = true } rest
    | "--workload" :: w :: rest ->
        if List.mem w workloads then go { a with workload = w } rest
        else fail "unknown workload %S" w
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some seed -> go { a with seed } rest
        | None -> fail "--seed expects an integer, got %S" v)
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. && Float.is_finite s ->
            go { a with seconds = s } rest
        | _ -> fail "--seconds expects a positive number, got %S" v)
    | "--trace" :: (("0" | "1") as v) :: rest ->
        go { a with trace = v = "1" } rest
    | flag :: _ -> fail "unknown or incomplete argument %S" flag
  in
  let a =
    go
      { workload = ""; seed = 42; seconds = 30.; trace = false; smoke = false }
      (List.tl (Array.to_list argv))
  in
  if a.workload = "" then fail "--workload is required";
  a

(* ------------------------------------------------------------------ *)
(* Run length.  A rep is a fixed amount of work: one set-up, then a
   fixed sequence of timed operations.  The number of reps planned
   comes from --seconds and the workload's nominal rep length below,
   never from measured speed, so a faster commit gains no reps.  A
   slow host can still cut a run short (see [loop]); the estimators
   (the mean of the fastest third, medians) do not fall as samples are
   added, so that mostly costs precision.  README.md records the
   planned counts at the run length BENCHMARK.json sets.

   Sizes keep each workload in the heap regime of the paper's scale,
   where the major heap outgrows the 8 M-word (64 MB) minor heap the
   program sets for itself (1.8 GB at paper scale) over a run.  At
   these sizes batch-ronin's layer shares match larger scales'
   (README.md). *)

let batch_scale = 0.05
let batch_runs_per_rep = 5
let stream_scale = 0.05
let stream_polls_per_rep = 50
let early_relay_every = 50
let durable_recoveries_per_rep = 2
let fleet_scale = 0.004
let fleet_backfill_rounds = 10
let fleet_rounds_per_rep = 40

(* One domain, like every other workload.  With two domains on the
   2-vCPU guest a round waits for whichever vCPU the host slowed: over
   sets of ten runs, latency_p50_ms spread 0.10 to 0.43 (IQR / median).
   With one domain, runs in the same stretch of host speed agreed
   within 5%. *)
let fleet_jobs = 1

(* Nominal seconds per rep, about 1.4x a rep's wall time in a quiet
   stretch of the 2-vCPU guest measured, so that a run whose host is up
   to 1.4x slower still takes every rep.  The shared host runs the same
   work up to 2.7x slower for minutes at a time; a run then stops early
   (see [loop] below) rather than overrun --seconds. *)
let rep_seconds = function
  | "batch-ronin" -> 2.5
  | "stream-nomad" -> 1.75
  | "stream-durable" -> 2.5
  | _ -> 3.

let min_reps = 2

(* ------------------------------------------------------------------ *)
(* Measurement state                                                   *)

(* One rep's timed operations. *)
type rep = {
  lat : float list;  (** ms, one per operation, newest first *)
  receipts : int;  (** receipts they consumed *)
}

type run = {
  mutable reps : rep list;  (** finished reps, newest first *)
  mutable cur : rep;  (** the rep in progress *)
  mutable setups : float list;  (** s, one per rep *)
  mutable builds : float list;  (** s, scenario build part of each set-up *)
  mutable recoveries : float list;  (** s, stream-durable restarts *)
  mutable failed : int;
  mutable errors : string list;
  layer : (string, float) Hashtbl.t;  (** per-layer sums (traced run) *)
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let add r k v =
  Hashtbl.replace r.layer k
    (v +. Option.value ~default:0. (Hashtbl.find_opt r.layer k))

let get r k = Option.value ~default:0. (Hashtbl.find_opt r.layer k)

let check r ok msg =
  if (not ok) && List.length r.errors < 20 then r.errors <- msg :: r.errors

(* Bench-owned spans: only the traced run records them, on a tracer of
   its own that is never the program's default, so the end-to-end run
   keeps the production tracer and no bench timing calls. *)
let tracing = ref false
let tracer = ref Span.noop

let span r name f =
  if !tracing then
    Span.with_ ~tracer:!tracer
      ~attrs:[ ("rep", string_of_int (List.length r.reps)) ]
      name f
  else f ()

let op r name f =
  let v, dt = timed (fun () -> span r name f) in
  r.cur <- { r.cur with lat = (dt *. 1000.) :: r.cur.lat };
  v

let consumed r n = r.cur <- { r.cur with receipts = r.cur.receipts + n }

let setup r f =
  let v, dt = timed f in
  r.setups <- dt :: r.setups;
  v

let build r f =
  let v, dt = timed (fun () -> span r "workload.build" f) in
  r.builds <- dt :: r.builds;
  v

(* The program's default registry, flattened: every instrument's value
   (counter value, gauge value, histogram sum) summed under its name,
   and again under "name{key=value}" for each of its labels. *)
let registry () =
  let tbl = Hashtbl.create 64 in
  let bump k v =
    Hashtbl.replace tbl k
      (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun (m : Metrics.metric) ->
      let v =
        match m.Metrics.m_value with
        | Metrics.V_counter n -> float_of_int n
        | Metrics.V_gauge g -> g
        | Metrics.V_histogram h -> h.Metrics.h_sum
      in
      bump m.Metrics.m_name v;
      List.iter
        (fun (k, l) -> bump (Printf.sprintf "%s{%s=%s}" m.Metrics.m_name k l) v)
        m.Metrics.m_labels)
    (Metrics.snapshot (Metrics.default ()));
  tbl

(* Run [f] (a rep's timed section) and, in the traced run, add what the
   program recorded meanwhile to the layer sums under "reg:<key>". *)
let recorded r f =
  if not !tracing then f ()
  else begin
    let before = registry () in
    let v = f () in
    Hashtbl.iter
      (fun k after ->
        let d = after -. Option.value ~default:0. (Hashtbl.find_opt before k) in
        if d <> 0. then add r ("reg:" ^ k) d)
      (registry ());
    v
  end

let receipt_count chains =
  List.fold_left
    (fun acc c -> acc + List.length (Chain.all_receipts c))
    0 chains

let head c = List.length (Chain.all_blocks c)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Scratch space inside the working directory (the checkout). *)
let work_dir = ".xcwbench"

(* Workloads may run side by side in one checkout, so another process
   can create the directory between the test and the mkdir. *)
let ensure_work_dir () =
  try Sys.mkdir work_dir 0o755 with Sys_error _ when Sys.is_directory work_dir -> ()

(* ------------------------------------------------------------------ *)
(* batch-ronin: the paper's batch measurement (Table 2 / §4.2.2)       *)

(* What must not change between reps: the dataset and every rule row. *)
let report_signature (rep : Report.t) =
  String.concat "\n"
    (Report.dataset_csv rep
    :: List.map
         (fun (row : Report.rule_row) ->
           Printf.sprintf "%s|%d|%d" row.Report.rr_rule row.Report.rr_captured
             (List.length row.Report.rr_anomalies))
         rep.Report.rows)

(* [Detector.run] rebuilt from the same public calls, each phase in a
   bench span — the traced run's view of the batch layers. *)
let traced_detect r (input : Detector.input) =
  Engine.recommended_gc_setup ();
  let config = input.Detector.i_config in
  let t0 = now () in
  let client ~seed ~profile ~fault ~endpoint_faults chain =
    Detector.build_client ~profile ~seed ~policy:input.Detector.i_client_policy
      ~endpoints:input.Detector.i_endpoints ~quorum:input.Detector.i_quorum
      ~fault ~endpoint_faults chain
  in
  let src_client, dst_client =
    span r "rpc.build_client" (fun () ->
        ( client ~seed:input.Detector.i_rpc_seed
            ~profile:input.Detector.i_source_profile
            ~fault:input.Detector.i_source_fault
            ~endpoint_faults:input.Detector.i_source_endpoint_faults
            input.Detector.i_source_chain,
          client ~seed:(input.Detector.i_rpc_seed + 1)
            ~profile:input.Detector.i_target_profile
            ~fault:input.Detector.i_target_fault
            ~endpoint_faults:input.Detector.i_target_endpoint_faults
            input.Detector.i_target_chain ))
  in
  let decode role client chain =
    span r "decoder.decode_chain" (fun () ->
        Decoder.decode_chain ~ndomains:input.Detector.i_ndomains
          input.Detector.i_plugin config ~role client chain)
  in
  let src = decode Decoder.Source src_client input.Detector.i_source_chain in
  let dst = decode Decoder.Target dst_client input.Detector.i_target_chain in
  let decoded = src @ dst in
  let batches =
    Config.to_facts config
    :: List.map
         (fun (rd : Decoder.receipt_decode) -> rd.Decoder.rd_facts)
         decoded
  in
  let db = Engine.create_db () in
  let fresh =
    span r "facts.load_all" (fun () ->
        List.fold_left
          (fun acc facts -> acc + List.length (Facts.load_all db facts))
          0 batches)
  in
  add r "facts.loaded" (float_of_int (List.length (List.concat batches)));
  add r "facts.fresh" (float_of_int fresh);
  let decode_seconds = now () -. t0 in
  let total_facts = Engine.total_tuples db in
  let rule_stats, eval_seconds =
    timed (fun () ->
        span r "datalog.run" (fun () ->
            Engine.run ~ndomains:input.Detector.i_ndomains
              ~aggregates:Rules.aggregates db input.Detector.i_program))
  in
  let rpc_s =
    Client.total_latency src_client +. Client.total_latency dst_client
  in
  add r "rpc.fetch_sim_s" rpc_s;
  let decode_errors =
    List.concat_map
      (fun (rd : Decoder.receipt_decode) -> rd.Decoder.rd_errors)
      decoded
  in
  let report =
    span r "dissect.dissect" (fun () ->
        Dissect.dissect ~label:input.Detector.i_label ~config
          ~pricing:input.Detector.i_pricing
          ~first_window_withdrawal_id:
            input.Detector.i_first_window_withdrawal_id
          ~decode_errors ~db ~decode_seconds ~eval_seconds
          ~simulated_rpc_seconds:rpc_s ~total_facts ())
  in
  {
    Detector.report;
    db;
    decode_results = [];
    decode_errors;
    rule_stats;
    pool_health = None;
  }

let batch_ronin a r =
  let scale = if a.smoke then 0.002 else batch_scale in
  let runs = if a.smoke then 3 else batch_runs_per_rep in
  let input =
    setup r (fun () ->
        let b =
          build r (fun () -> Xcw_workload.Ronin.build ~seed:a.seed ~scale ())
        in
        Presets.input_of ~built:b ~plugin:Decoder.ronin_plugin ~label:"ronin")
  in
  let receipts =
    receipt_count
      [ input.Detector.i_source_chain; input.Detector.i_target_chain ]
  in
  let source_chain_id = Chain.(input.Detector.i_source_chain.chain_id) in
  (* The traced run's phase-by-phase pipeline must reproduce the
     detector's own report. *)
  let reference =
    if !tracing then
      Some (report_signature (Detector.run input).Detector.report)
    else None
  in
  let first = ref reference in
  recorded r (fun () ->
      for _ = 1 to runs do
        let res =
          op r "detector.run" (fun () ->
              if !tracing then traced_detect r input else Detector.run input)
        in
        consumed r receipts;
        if
          List.exists
            (fun (e : Decoder.decode_error) ->
              String.starts_with ~prefix:"rpc failure" e.Decoder.err_detail)
            res.Detector.decode_errors
        then r.failed <- r.failed + 1;
        let sum = Detector.attack_summary ~source_chain_id res in
        check r
          (sum.Detector.as_events = 2 && sum.Detector.as_transactions = 2)
          (Printf.sprintf "batch-ronin: %d forged-withdrawal events / %d txs, \
                           want 2 / 2"
             sum.Detector.as_events sum.Detector.as_transactions);
        let s = report_signature res.Detector.report in
        match !first with
        | None -> first := Some s
        | Some s0 -> check r (s = s0) "batch-ronin: report differs between runs"
      done)

(* ------------------------------------------------------------------ *)
(* stream-nomad / stream-durable: the watcher's steady state           *)

let user = Address.of_seed "xcwbench-user"

(* Fund a user with every registered token, so the timed polls see
   only benign round trips over mappings the bridge knows. *)
let prepare_traffic (b : Scenario.built) =
  let bridge = b.Scenario.bridge in
  let eth = U256.of_tokens ~decimals:18 1_000 in
  Chain.fund bridge.Bridge.source.Bridge.chain user eth;
  Chain.fund bridge.Bridge.target.Bridge.chain user eth;
  List.iter
    (fun rt -> Scenario.mint_src bridge rt user (U256.of_int 1_000_000_000))
    b.Scenario.tokens

(* Traffic before poll [i]: both chain clocks advance 2,000 s, then —
   on every [early_relay_every]-th poll — one deposit relayed 60 s
   after it was made (inside the 1,800 s fraud-proof window, so the
   finality rule must flag it), then two honest ERC-20 round trips.
   Returns the early relay's (deposit tx, relay tx), if any. *)
let traffic (b : Scenario.built) i =
  let bridge = b.Scenario.bridge in
  let src = bridge.Bridge.source.Bridge.chain in
  let dst = bridge.Bridge.target.Bridge.chain in
  let t = 2_000 + max (Chain.now src) (Chain.now dst) in
  Scenario.advance_to src t;
  Scenario.advance_to dst t;
  let tokens = Array.of_list b.Scenario.tokens in
  let deposit k =
    let rt = tokens.(k mod Array.length tokens) in
    Bridge.deposit_erc20 bridge ~user
      ~src_token:rt.Scenario.rt_mapping.Bridge.m_src_token
      ~amount:(U256.of_int (7 + k)) ~beneficiary:user
  in
  let early =
    if i mod early_relay_every = 0 then begin
      let d = deposit i in
      let relay =
        Bridge.complete_deposit ~override_delay:60 bridge ~deposit:d
      in
      Some
        ( Facts.hex_of_hash d.Bridge.d_receipt.Types.r_tx_hash,
          Facts.hex_of_hash relay.Types.r_tx_hash )
    end
    else None
  in
  for k = 1 to 2 do
    let d = deposit ((2 * i) + k) in
    ignore (Bridge.complete_deposit bridge ~deposit:d)
  done;
  early

let stream ~durable a r =
  let scale = if a.smoke then 0.002 else stream_scale in
  let polls = if a.smoke then early_relay_every else stream_polls_per_rep in
  let name = if durable then "stream-durable" else "stream-nomad" in
  let dir =
    Filename.concat work_dir
      (Printf.sprintf "ckpt-%d-%d" (Unix.getpid ()) (List.length r.reps))
  in
  Fun.protect
    ~finally:(fun () -> if durable then rm_rf dir)
    (fun () ->
      let b, input, ck, mon =
        setup r (fun () ->
            let b =
              build r (fun () ->
                  Xcw_workload.Nomad.build ~seed:a.seed ~scale ())
            in
            prepare_traffic b;
            let input =
              Presets.input_of ~built:b ~plugin:Decoder.nomad_plugin
                ~label:"nomad"
            in
            let ck =
              if durable then begin
                ensure_work_dir ();
                rm_rf dir;
                Some (Monitor.Checkpoint.open_ ~dir ())
              end
              else None
            in
            let mon = Monitor.create ?checkpoint:ck input in
            let src = input.Detector.i_source_chain in
            let dst = input.Detector.i_target_chain in
            ignore
              (Monitor.poll mon ~source_block:(head src)
                 ~target_block:(head dst));
            (b, input, ck, mon))
      in
      let src = input.Detector.i_source_chain in
      let dst = input.Detector.i_target_chain in
      let receipts0 = receipt_count [ src; dst ] in
      let rpc0 = Monitor.rpc_seconds mon in
      let wal0 =
        match ck with
        | Some ck ->
            Xcw_store.Store.appended_bytes (Monitor.Checkpoint.store ck)
        | None -> 0
      in
      recorded r (fun () ->
          for i = 1 to polls do
            let early = traffic b i in
            let alerts =
              op r "monitor.poll" (fun () ->
                  Monitor.poll mon ~source_block:(head src)
                    ~target_block:(head dst))
            in
            if not (Monitor.health mon).Monitor.h_synced then
              r.failed <- r.failed + 1;
            let ok =
              match early with
              | None -> alerts = []
              | Some (dep, relay) ->
                  List.length alerts = 2
                  && List.for_all
                       (fun (al : Monitor.alert) ->
                         let an = al.Monitor.al_anomaly in
                         an.Report.a_class = Report.Finality_violation
                         && (an.Report.a_tx_hash = dep
                            || an.Report.a_tx_hash = relay))
                       alerts
            in
            check r ok
              (Printf.sprintf "%s: poll %d raised %d alerts, want %d" name i
                 (List.length alerts)
                 (if early = None then 0 else 2))
          done);
      consumed r (receipt_count [ src; dst ] - receipts0);
      add r "rpc.fetch_sim_s" (Monitor.rpc_seconds mon -. rpc0);
      add r "monitor.facts_cached" (float_of_int (Monitor.facts_cached mon));
      match ck with
      | None -> ()
      | Some ck ->
          let store = Monitor.Checkpoint.store ck in
          add r "store.wal_bytes"
            (float_of_int (Xcw_store.Store.appended_bytes store - wal0));
          let snap = Filename.concat dir "snapshot.bin" in
          if Sys.file_exists snap then
            add r "store.snapshot_bytes"
              (float_of_int (Unix.stat snap).Unix.st_size);
          let seq = Monitor.alert_seq mon in
          Monitor.Checkpoint.close ck;
          (* Restart: recovery must restore the alert counter, and the
             recovered monitor's next poll at the same heads must be a
             no-op (exactly-once). *)
          for k = 1 to durable_recoveries_per_rep do
            let (ck', m'), dt =
              timed (fun () ->
                  span r "store.recover" (fun () ->
                      let ck' = Monitor.Checkpoint.open_ ~dir () in
                      (ck', Monitor.create ~checkpoint:ck' input)))
            in
            r.recoveries <- dt :: r.recoveries;
            check r (Monitor.alert_seq m' = seq)
              "stream-durable: alert_seq changed across recovery";
            if k = durable_recoveries_per_rep then
              check r
                (Monitor.poll m' ~source_block:(head src)
                   ~target_block:(head dst)
                = [])
                "stream-durable: recovered monitor re-emitted alerts";
            Monitor.Checkpoint.close ck'
          done)

(* ------------------------------------------------------------------ *)
(* fleet-mixed: supervisor, retries, quorum, bus                       *)

let fleet_lane_names =
  [
    "nomad";
    "ronin";
    "generic";
    "forged-proof";
    "exit";
    "validator-takeover";
    "nomad-moderate";
    "ronin-quorum";
  ]

let fleet_lanes ~scale ~seed ~sync =
  let moderate i =
    {
      i with
      Detector.i_source_fault = Some Fault.moderate;
      i_target_fault = Some Fault.moderate;
    }
  in
  let quorum i =
    let efs = [ None; None; Some Fault.byzantine ] in
    {
      i with
      Detector.i_endpoints = 3;
      i_quorum = 2;
      i_source_endpoint_faults = efs;
      i_target_endpoint_faults = efs;
    }
  in
  let kinds =
    [
      (Presets.Nomad, Fun.id);
      (Presets.Ronin, Fun.id);
      (Presets.Generic_kind Xcw_workload.Generic.default_spec, Fun.id);
      (Presets.Attack Report.Forged_proof, Fun.id);
      (Presets.Exit, Fun.id);
      (Presets.Attack Report.Validator_takeover, Fun.id);
      (Presets.Nomad, moderate);
      (Presets.Ronin, quorum);
    ]
  in
  List.mapi
    (fun i (name, (kind, tweak)) ->
      Presets.lane ~scale ~seed:(seed + i) ~rounds_to_sync:sync ~name ~tweak
        kind)
    (List.combine fleet_lane_names kinds)

let emission_signature sup =
  String.concat "\n"
    (List.map
       (fun (fa : Bus.fleet_alert) ->
         Printf.sprintf "%d|%d|%s|%s|%s" fa.Bus.fa_seq fa.Bus.fa_round
           fa.Bus.fa_bridge (Bus.signature fa.Bus.fa_alert)
           (String.concat ","
              (List.map
                 (fun (o : Bus.origin) -> o.Bus.o_bridge)
                 fa.Bus.fa_origins)))
       (Sup.alerts sup))

let fleet_reference = ref None

(* The breaker counts failures but never parks a lane.  Whether the
   faulty lane's stale heads add up to a trip depends on the seed's
   fault draws: on seeds that park it, a round does about a third less
   work, which made the runs of one set fall in two groups. *)
let fleet_breaker =
  { Sup.default_breaker with Sup.cb_failure_threshold = max_int }

let fleet_mixed a r =
  let scale = if a.smoke then 0.002 else fleet_scale in
  let sync = if a.smoke then 4 else fleet_backfill_rounds in
  let rounds = if a.smoke then 8 else fleet_rounds_per_rep in
  let lanes, sup =
    setup r (fun () ->
        let lanes = build r (fun () -> fleet_lanes ~scale ~seed:a.seed ~sync) in
        ( lanes,
          Sup.create ~ndomains:fleet_jobs ~breaker:fleet_breaker lanes ))
  in
  let monitors () =
    List.filter_map (Sup.lane_monitor sup)
      (List.init (Sup.lane_count sup) Fun.id)
  in
  let rpc () =
    List.fold_left (fun acc m -> acc +. Monitor.rpc_seconds m) 0. (monitors ())
  in
  let exceptions (h : Sup.health) =
    List.fold_left
      (fun acc (lh : Sup.lane_health) -> acc + lh.Sup.lh_exceptions)
      0 h.Sup.fh_lanes
  in
  let raised = ref (exceptions (Sup.health sup)) in
  recorded r (fun () ->
      for _ = 1 to rounds do
        ignore (op r "fleet.round" (fun () -> Sup.poll sup));
        (* A round fails if a lane's poll raised.  A faulty lane's
           unsynced polls are the fault model at work, not failures. *)
        let h = Sup.health sup in
        if exceptions h > !raised then r.failed <- r.failed + 1;
        raised := exceptions h
      done);
  consumed r
    (List.fold_left
        (fun acc (l : Sup.lane_spec) ->
          acc
          + receipt_count
              [
                l.Sup.l_input.Detector.i_source_chain;
                l.Sup.l_input.Detector.i_target_chain;
              ])
        0 lanes);
  add r "rpc.fetch_sim_s" (rpc ());
  add r "monitor.facts_cached"
    (float_of_int
       (List.fold_left
          (fun acc m -> acc + Monitor.facts_cached m)
          0 (monitors ())));
  add r "fleet.bus_emitted" (float_of_int (Bus.emitted (Sup.bus sup)));
  add r "fleet.bus_collapsed" (float_of_int (Bus.collapsed (Sup.bus sup)));
  let s = emission_signature sup in
  (match !fleet_reference with
  | None -> fleet_reference := Some s
  | Some s0 ->
      check r (s = s0) "fleet-mixed: bus emissions differ between reps");
  (* The quorum lane's pools must name endpoint 2, and only it. *)
  let quorum_lane = List.length fleet_lane_names - 1 in
  let suspects =
    match
      Option.bind (Sup.lane_monitor sup quorum_lane) Monitor.pool_health
    with
    | Some (s, d) -> [ s.Xcw_rpc.Pool.ph_suspects; d.Xcw_rpc.Pool.ph_suspects ]
    | None -> []
  in
  check r
    (List.mem [ 2 ] suspects
    && List.for_all (fun l -> l = [] || l = [ 2 ]) suspects)
    "fleet-mixed: the quorum lane did not name endpoint 2 as the liar"

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let median = function [] -> 0. | l -> Stats.median l
let ratio a b = if b = 0. then 0. else a /. b
let ops r = List.fold_left (fun acc p -> acc + List.length p.lat) 0 r.reps
let op_seconds r =
  List.fold_left (fun acc p -> List.fold_left ( +. ) acc p.lat) 0. r.reps
  /. 1000.
let per_op r v = ratio v (float_of_int (ops r))
let per_rep r v = ratio v (float_of_int (List.length r.reps))

(* Each operation's time, in operation order: the mean of its fastest
   third of runs over the reps.  Every rep repeats the first rep's
   operations exactly (same seed, same sequence), and contention from
   neighbours only ever slows an operation down, so an operation's
   faster runs are its less disturbed ones.  The single fastest run is
   not used: when the host is slow for most of a run, it is a rare quiet
   moment whose presence is luck, and it gave stream-nomad's p50 twice
   the run-to-run spread (README.md).  The spread of these times over
   the rep is the workload's own: heavier polls, snapshot polls,
   backfill rounds. *)
let fast_ops r =
  let n =
    List.fold_left (fun n p -> min n (List.length p.lat)) max_int r.reps
  in
  let runs = Array.make (if r.reps = [] then 0 else n) [] in
  List.iter
    (fun p ->
      List.iteri
        (fun i ms -> if i < n then runs.(i) <- ms :: runs.(i))
        (List.rev p.lat))
    r.reps;
  let keep = max 1 ((List.length r.reps + 1) / 3) in
  let mean_of_fastest l =
    let fastest = List.filteri (fun i _ -> i < keep) (List.sort compare l) in
    List.fold_left ( +. ) 0. fastest /. float_of_int keep
  in
  Array.to_list (Array.map mean_of_fastest runs)

let fast_percentile r q =
  match fast_ops r with [] -> 0. | l -> Stats.percentile q l

let end_to_end r ~peak_heap_words =
  let receipts = match r.reps with [] -> 0 | p :: _ -> p.receipts in
  [
    ("setup_s", median r.setups, "s");
    ("latency_p50_ms", fast_percentile r 50., "ms");
    ("latency_p90_ms", fast_percentile r 90., "ms");
    ( "receipts_per_s",
      ratio (float_of_int receipts)
        (List.fold_left ( +. ) 0. (fast_ops r) /. 1000.),
      "1/s" );
    ( "peak_heap_mb",
      float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1e6,
      "MB" );
  ]

(* Span totals by name (s), over the bench tracer's records. *)
let span_seconds name =
  List.fold_left
    (fun acc (s : Span.record) ->
      if s.Span.sp_name = name then acc +. s.Span.sp_duration else acc)
    0. (Span.records !tracer)

let per_layer r =
  let reg k = get r ("reg:" ^ k) in
  let ms_per_op s = per_op r (1000. *. s) in
  let ms name s = (name, ms_per_op s, "ms/op") in
  let count name k = (name, per_op r (reg k), "count/op") in
  let strata =
    Hashtbl.fold
      (fun k v acc ->
        if String.starts_with ~prefix:"reg:xcw_datalog_stratum_seconds{" k then
          v :: acc
        else acc)
      r.layer []
    |> List.sort (fun a b -> compare b a)
  in
  let eval_s = reg "xcw_datalog_stratum_seconds" in
  let poll_s = reg "xcw_monitor_poll_seconds" in
  [
    ("workload.build_s", median r.builds, "s");
    ("rpc.fetch_sim_s_per_op", per_op r (get r "rpc.fetch_sim_s"), "s/op");
    count "rpc.requests_per_op" "xcw_rpc_requests_total";
    count "rpc.retries_per_op" "xcw_client_retries_total";
    count "rpc.give_ups_per_op" "xcw_client_give_ups_total";
    count "rpc.pool_disagreements_per_op" "xcw_pool_disagreements_total";
    ms "decoder.ms_per_op" (span_seconds "decoder.decode_chain");
    count "decoder.receipts_per_op" "xcw_decoder_receipts_total";
    count "decoder.facts_per_op" "xcw_decoder_facts_total";
    count "decoder.errors_per_op" "xcw_decoder_errors_total";
    count "decoder.trace_gaps_per_op" "xcw_decoder_trace_gaps_total";
    ms "facts.load_ms_per_op" (span_seconds "facts.load_all");
    ("facts.loaded_per_op", per_op r (get r "facts.loaded"), "count/op");
    ( "facts.fresh_ratio",
      ratio (get r "facts.fresh") (get r "facts.loaded"),
      "ratio" );
    ms "datalog.eval_ms_per_op" eval_s;
  ]
  @ List.init 8 (fun i ->
        ms
          (Printf.sprintf "datalog.stratum_top%d_ms_per_op" (i + 1))
          (Option.value ~default:0. (List.nth_opt strata i)))
  @ [
      count "datalog.tuples_derived_per_op" "xcw_datalog_tuples_derived_total";
      count "datalog.delta_tuples_per_op" "xcw_datalog_delta_tuples";
      count "datalog.strata_skipped_per_op" "xcw_datalog_strata_skipped_total";
      count "datalog.strata_seminaive_per_op"
        "xcw_datalog_strata_seminaive_total";
      count "datalog.strata_recomputed_per_op"
        "xcw_datalog_strata_recomputed_total";
      count "datalog.retractions_per_op" "xcw_datalog_retractions_total";
      ms "dissect.ms_per_op" (span_seconds "dissect.dissect");
      ms "monitor.poll_ms_per_op" poll_s;
      (* Everything in a poll but rule evaluation: decode, load,
         dissect, alert diff and commit. *)
      ms "monitor.other_ms_per_op"
        (if poll_s = 0. then 0. else poll_s -. eval_s);
      ( "monitor.facts_cached",
        per_rep r (get r "monitor.facts_cached"),
        "count" );
      ("store.wal_bytes_per_op", per_op r (get r "store.wal_bytes"), "B/op");
      ("store.snapshot_bytes", per_rep r (get r "store.snapshot_bytes"), "B");
      ("store.recover_s", median r.recoveries, "s");
      ( "fleet.busy_ratio",
        ratio
          (reg "xcw_fleet_poll_seconds")
          (op_seconds r *. float_of_int fleet_jobs),
        "ratio" );
      ( "fleet.bus_emitted_per_rep",
        per_rep r (get r "fleet.bus_emitted"),
        "count" );
      ( "fleet.bus_collapsed_per_rep",
        per_rep r (get r "fleet.bus_collapsed"),
        "count" );
    ]
  @ List.map
      (fun lane ->
        ms
          (Printf.sprintf "fleet.lane.%s_ms_per_op" lane)
          (reg (Printf.sprintf "xcw_fleet_poll_seconds{bridge=%s}" lane)))
      fleet_lane_names
  @ [ ("trace.op_p50_ms", fast_percentile r 50., "ms") ]

(* Spans as JSON lines, with each span's parent (from nesting: the
   latest-started span one level up) and self time (duration minus the
   time its children cover). *)
let write_trace workload =
  let records = Array.of_list (Span.records !tracer) in
  let order = Array.init (Array.length records) Fun.id in
  Array.stable_sort
    (fun i j ->
      compare
        (records.(i).Span.sp_start, records.(i).Span.sp_depth)
        (records.(j).Span.sp_start, records.(j).Span.sp_depth))
    order;
  let parent = Array.make (Array.length records) (-1) in
  let child_s = Array.make (Array.length records) 0. in
  let open_at = Hashtbl.create 8 in
  Array.iter
    (fun i ->
      let d = records.(i).Span.sp_depth in
      (match Hashtbl.find_opt open_at (d - 1) with
      | Some p when d > 0 ->
          parent.(i) <- p;
          child_s.(p) <- child_s.(p) +. records.(i).Span.sp_duration
      | _ -> ());
      Hashtbl.replace open_at d i)
    order;
  ensure_work_dir ();
  let path =
    Filename.concat work_dir (Printf.sprintf "trace-%s.jsonl" workload)
  in
  let oc = open_out path in
  Array.iter
    (fun i ->
      let s = records.(i) in
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("workload", Json.String workload);
                ("rep", Json.String (List.assoc "rep" s.Span.sp_attrs));
                ("id", Json.Int i);
                ("name", Json.String s.Span.sp_name);
                ("start", Json.Float s.Span.sp_start);
                ("duration", Json.Float s.Span.sp_duration);
                ("depth", Json.Int s.Span.sp_depth);
                ( "parent",
                  if parent.(i) < 0 then Json.Null else Json.Int parent.(i) );
                ("self", Json.Float (s.Span.sp_duration -. child_s.(i)));
              ]));
      output_char oc '\n')
    order;
  close_out oc;
  (path, child_s, records)

(* ------------------------------------------------------------------ *)

let () =
  let a = parse_args Sys.argv in
  (* The detector and the monitor apply this on first use; applying it
     up front makes every rep's set-up run under the same GC settings. *)
  Engine.recommended_gc_setup ();
  tracing := a.trace;
  if a.trace then tracer := Span.create ~capacity:(1 lsl 18) ();
  let no_ops = { lat = []; receipts = 0 } in
  let r =
    {
      reps = [];
      cur = no_ops;
      setups = [];
      builds = [];
      recoveries = [];
      failed = 0;
      errors = [];
      layer = Hashtbl.create 64;
    }
  in
  let rep =
    match a.workload with
    | "batch-ronin" -> batch_ronin a
    | "stream-nomad" -> stream ~durable:false a
    | "stream-durable" -> stream ~durable:true a
    | _ -> fleet_mixed a
  in
  let reps =
    if a.smoke then min_reps
    else max min_reps (truncate (a.seconds /. rep_seconds a.workload))
  in
  let start = now () in
  let peak_heap_words = ref 0 in
  let rec loop k =
    (* Every rep starts from a fully collected heap. *)
    Gc.compact ();
    let t0 = now () in
    (try rep r
     with e -> check r false (a.workload ^ ": raised " ^ Printexc.to_string e));
    (* The major heap keeps growing over a run's reps (the runtime does
       not compact), so its peak is read once, after the first rep: the
       high-water mark of one set-up and one rep of operations. *)
    if k = 1 then peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    if r.cur.lat <> [] then r.reps <- r.cur :: r.reps;
    r.cur <- no_ops;
    (* A run never starts a rep that, at the last rep's pace, would end
       after --seconds: on a host slower than the nominal one the run
       keeps its length and takes fewer reps, shown as reps=k/K. *)
    let last = now () -. t0 in
    if k < reps && r.errors = [] && now () -. start +. last <= a.seconds then
      loop (k + 1)
  in
  loop 1;
  if r.reps = [] then check r false (a.workload ^ ": no operation completed");
  let metrics =
    if not a.trace then end_to_end r ~peak_heap_words:!peak_heap_words
    else begin
      check r (Span.dropped !tracer = 0) "trace: spans were dropped";
      let path, child_s, records = write_trace a.workload in
      Printf.printf "%s trace %s (%d spans, dropped %d)\n" a.workload path
        (Array.length records) (Span.dropped !tracer);
      (* Batch: the phase spans must cover the detector span they nest
         in, i.e. the layer self times add up to the traced op time. *)
      if a.workload = "batch-ronin" then begin
        let total = ref 0. and covered = ref 0. in
        Array.iteri
          (fun i (s : Span.record) ->
            if s.Span.sp_name = "detector.run" then begin
              total := !total +. s.Span.sp_duration;
              covered := !covered +. child_s.(i)
            end)
          records;
        Printf.printf "%s layer self times cover %.1f%% of detector.run\n"
          a.workload (100. *. ratio !covered !total);
        check r (!covered >= 0.95 *. !total)
          "trace: batch layer spans cover under 95% of detector.run"
      end;
      per_layer r
    end
  in
  List.iter
    (fun (name, v, unit) ->
      Printf.printf "%s %s %.6g %s\n" a.workload name v unit)
    metrics;
  Printf.printf "%s n=%d reps=%d/%d op_s=%.3f receipts_per_rep=%d\n"
    a.workload (ops r) (List.length r.reps) reps (op_seconds r)
    (match r.reps with [] -> 0 | p :: _ -> p.receipts);
  List.iter
    (Printf.printf "%s CHECK FAILED: %s\n" a.workload)
    (List.rev r.errors);
  let correct = r.errors = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (ops r));
            ("failed", Json.Int r.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     ( name,
                       Json.Obj
                         [ ("value", Json.Float v); ("unit", Json.String unit) ]
                     ))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
