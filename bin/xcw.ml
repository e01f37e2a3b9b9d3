(* The XChainWatcher command-line interface.

   Subcommands:
   - [detect]     generate a bridge scenario and run anomaly detection
   - [fleet]      supervise a whole fleet of bridges at once
   - [rules]      print the cross-chain Datalog rules
   - [config]     print a bridge's static configuration (JSON)
   - [timeframes] print the data-extraction timeframes (Table 1)

   Examples:
     xcw detect --bridge nomad --scale 0.05 --report report.json
     xcw detect --bridge ronin --latency realistic
     xcw detect --attack forged-proof --seed 3
     xcw detect --exit stale-root
     xcw fleet --bridges nomad,ronin,generic,attack-forged-proof --generics 4
     xcw fleet --bridges exit,exit-slashing-evasion --rounds 12
     xcw rules *)

module Detector = Xcw_core.Detector
module Decoder = Xcw_core.Decoder
module Report = Xcw_core.Report
module Rules = Xcw_core.Rules
module Config = Xcw_core.Config
module Latency = Xcw_rpc.Latency
module Scenario = Xcw_workload.Scenario
module Attacks = Xcw_workload.Attacks
module Generic = Xcw_workload.Generic
module Bridge = Xcw_bridge.Bridge
module Metrics = Xcw_obs.Metrics
module Span = Xcw_obs.Span
module Sink = Xcw_obs.Sink
module Supervisor = Xcw_fleet.Supervisor
module Bus = Xcw_fleet.Bus
module Presets = Xcw_fleet.Presets
open Cmdliner

type bridge_kind = Nomad | Ronin

let bridge_conv =
  let parse = function
    | "nomad" -> Ok Nomad
    | "ronin" -> Ok Ronin
    | s -> Error (`Msg (Printf.sprintf "unknown bridge %S (nomad|ronin)" s))
  in
  let print fmt b =
    Format.pp_print_string fmt (match b with Nomad -> "nomad" | Ronin -> "ronin")
  in
  Arg.conv (parse, print)

let bridge_arg =
  Arg.(
    required
    & opt (some bridge_conv) None
    & info [ "b"; "bridge" ] ~docv:"BRIDGE" ~doc:"Bridge scenario: nomad or ronin.")

(* [detect] accepts either --bridge or --attack, so its bridge flag is
   optional and the pairing is validated in the command body. *)
let opt_bridge_arg =
  Arg.(
    value
    & opt (some bridge_conv) None
    & info [ "b"; "bridge" ] ~docv:"BRIDGE"
        ~doc:"Bridge scenario: nomad or ronin.  Exactly one of $(b,--bridge), \
              $(b,--attack) and $(b,--exit) must be given.")

let attack_conv =
  let parse s =
    match Attacks.class_of_string s with
    | Some c -> Ok c
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown attack class %S \
                 (forged-proof|validator-takeover|unauthorized-mint|inconsistent-event)"
                s))
  in
  let print fmt c = Format.pp_print_string fmt (Attacks.class_slug c) in
  Arg.conv (parse, print)

let attack_arg =
  Arg.(
    value
    & opt (some attack_conv) None
    & info [ "attack" ] ~docv:"CLASS"
        ~doc:
          "Attack-pack scenario from the 2023 hack corpus: inject $(docv) \
           (forged-proof, validator-takeover, unauthorized-mint or \
           inconsistent-event) into benign generic-bridge traffic and \
           detect it.  Mutually exclusive with $(b,--bridge).")

let exit_conv =
  let parse = function
    | "benign" -> Ok `Benign
    | s -> (
        match Report.acc_class_of_slug s with
        | Some c -> Ok (`Class c)
        | None ->
            Error
              (`Msg
                 (Printf.sprintf
                    "unknown exit lane %S \
                     (benign|stale-root|forged-exit-proof|root-divergence|net-outflow|slashing-evasion)"
                    s)))
  in
  let print fmt = function
    | `Benign -> Format.pp_print_string fmt "benign"
    | `Class c -> Format.pp_print_string fmt (Report.acc_class_slug c)
  in
  Arg.conv (parse, print)

let exit_arg =
  Arg.(
    value
    & opt (some exit_conv) None
    & info [ "exit" ] ~docv:"LANE"
        ~doc:
          "Exit-bridge scenario with pessimistic accounting (DESIGN.md \
           §15): $(docv) is benign (deposit/seal/sign/claim traffic only) \
           or an injected accounting-violation class (stale-root, \
           forged-exit-proof, root-divergence, net-outflow or \
           slashing-evasion).  Mutually exclusive with $(b,--bridge) and \
           $(b,--attack).")

(* A flag value the run cannot use is a usage error naming the flag
   (exit 2), reported when the command line is read: before a scenario
   is built, and not as an uncaught exception from deep inside a
   library, or after the whole run. *)
let usage_error fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "xcw: %s@." msg;
      exit 2)
    fmt

(* An int flag [--FLAG] (default [default]) that must be at least
   [min]. *)
let int_arg ?(aliases = []) ~min flag default ~docv ~doc =
  Term.(
    const (fun n ->
        if n < min then usage_error "--%s %d must be at least %d" flag n min
        else n)
    $ Arg.value
        (Arg.opt Arg.int default (Arg.info (flag :: aliases) ~docv ~doc)))

(* The first existing prefix of [path] that is not a directory: a
   directory cannot be created through it. *)
let rec blocking_prefix path =
  if Sys.file_exists path then
    if Sys.is_directory path then None else Some path
  else
    let parent = Filename.dirname path in
    if parent = path then None else blocking_prefix parent

(* An output flag [--FLAG PATH].  A file's directory must exist and the
   file must not be a directory; a directory ([~dir:true]) is created
   with its missing parents, so no existing prefix of it may be a
   non-directory. *)
let output_arg ?(dir = false) flag ~docv ~doc =
  let check path =
    let fail fmt = usage_error ("--%s %s: " ^^ fmt) flag path in
    let parent = Filename.dirname path in
    match blocking_prefix (if dir then path else parent) with
    | Some p -> fail "%s is not a directory" p
    | None when dir -> ()
    | None when not (Sys.file_exists parent) ->
        fail "directory %s does not exist" parent
    | None when Sys.file_exists path && Sys.is_directory path ->
        fail "is a directory"
    | None -> ()
  in
  Term.(
    const (fun path ->
        Option.iter check path;
        path)
    $ Arg.value
        (Arg.opt (Arg.some Arg.string) None (Arg.info [ flag ] ~docv ~doc)))

(* The scale multiplies traffic counts, so zero, a negative value, NaN
   or infinity is a usage error naming the flag, not a workload. *)
let scale_arg =
  Term.(
    const (fun scale ->
        if Float.is_finite scale && scale > 0. then scale
        else usage_error "--scale %g must be positive and finite" scale)
    $ Arg.(
        value & opt float 0.05
        & info [ "scale" ] ~docv:"S"
            ~doc:
              "Benign-traffic volume as a fraction of the paper's counts \
               (positive and finite); injected anomalies keep their exact \
               paper counts."))

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N" ~doc:"Deterministic scenario seed.")

let latency_arg =
  Arg.(
    value
    & opt (enum [ ("colocated", `Colocated); ("realistic", `Realistic) ]) `Colocated
    & info [ "latency" ] ~docv:"PROFILE"
        ~doc:
          "Simulated RPC latency profile: colocated (negligible) or \
           realistic (the paper's calibrated per-bridge node latencies).")

let report_arg =
  output_arg "report" ~docv:"FILE"
    ~doc:"Write the full report as JSON to $(docv)."

let dataset_arg =
  output_arg "dataset" ~docv:"FILE"
    ~doc:"Write the labeled cctx dataset as JSON to $(docv)."

let rules_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "rules" ] ~docv:"FILE"
        ~doc:
          "Load the cross-chain rules from a Souffle-style .dl file \
           instead of the shipped rules/cross_chain_rules.dl.")

(* A rules file that cannot be read, does not parse or holds no rule
   is a usage error naming the flag and the file: a file cut short at a
   comment boundary parses to nothing, and would otherwise run a
   detector that captures nothing. *)
let load_rules = function
  | None -> Xcw_core.Rules.program
  | Some path -> (
      let fail msg =
        Format.eprintf "xcw: --rules %s@." msg;
        exit 2
      in
      let src =
        try In_channel.with_open_bin path In_channel.input_all
        with Sys_error msg -> fail msg
      in
      match Xcw_datalog.Parser.parse_program src with
      | exception Xcw_datalog.Parser.Parse_error { line; col; message } ->
          fail (Printf.sprintf "%s:%d:%d: %s" path line col message)
      | [] -> fail (path ^ ": no rules")
      | rules -> { Xcw_datalog.Ast.rules })

let dataset_csv_arg =
  output_arg "dataset-csv" ~docv:"FILE"
    ~doc:"Write the labeled cctx dataset as CSV to $(docv)."

let dump_facts_arg =
  output_arg ~dir:true "dump-facts" ~docv:"DIR"
    ~doc:
      "Write the full fact base (input and derived relations) as \
       tab-separated .facts files in $(docv) — Souffle's input format, \
       for cross-validation against the original artifact."

let metrics_arg =
  output_arg "metrics" ~docv:"FILE"
    ~doc:
      "Write every metric recorded during the run (RPC, decoder, Datalog \
       engine, monitor) as a Prometheus text exposition to $(docv)."

let trace_arg =
  output_arg "trace" ~docv:"FILE"
    ~doc:
      "Write the recorded spans (one JSON object per line: name, \
       attributes, start, duration, nesting depth) to $(docv)."

let jobs_arg =
  int_arg ~aliases:[ "j" ] ~min:1 "jobs" 1 ~docv:"N"
    ~doc:
      "Worker domains for Datalog rule evaluation and log decoding.  The \
       default 1 runs the sequential code paths untouched; any value \
       produces an identical report (the cross-chain program's strata \
       are non-recursive, so even derivation order is reproduced \
       bit-for-bit)."

let apply_jobs input jobs =
  if jobs = 1 then input else { input with Detector.i_ndomains = jobs }

(* --endpoints, --quorum and --byzantine, read and checked together:
   a combination that cannot form a valid pool is a usage error when
   the command line is read.  With a single endpoint there is no pool,
   and the other two are ignored.  The term is the function that
   threads the pool into a detector input. *)
let endpoints_arg =
  let pool endpoints quorum byzantine =
    if endpoints <= 1 then Fun.id
    else begin
      if quorum < 1 || quorum > endpoints then
        usage_error "--quorum %d out of range for %d endpoints" quorum
          endpoints;
      Option.iter
        (fun j ->
          if j < 0 || j >= endpoints then
            usage_error "--byzantine %d out of range for %d endpoints" j
              endpoints)
        byzantine;
      let efs =
        match byzantine with
        | None -> []
        | Some j ->
            List.init endpoints (fun i ->
                if i = j then Some Xcw_rpc.Fault.byzantine else None)
      in
      fun input ->
        {
          input with
          Detector.i_endpoints = endpoints;
          i_quorum = quorum;
          i_source_endpoint_faults = efs;
          i_target_endpoint_faults = efs;
        }
    end
  in
  Term.(
    const pool
    $ int_arg ~min:1 "endpoints" 1 ~docv:"N"
        ~doc:
          "Independent RPC endpoints per chain.  Above 1 every read goes \
           through a Byzantine-tolerant k-of-n quorum pool that \
           cross-validates responses by content."
    $ Arg.(
        value & opt int 2
        & info [ "quorum" ] ~docv:"K"
            ~doc:
              "Endpoints that must agree on a response's exact content \
               before the pool serves it (ignored with a single endpoint).")
    $ Arg.(
        value
        & opt (some int) None
        & info [ "byzantine" ] ~docv:"IDX"
            ~doc:
              "Make endpoint $(docv) (0-based, on both chains) a lying node: \
               it answers every request but corrupts roughly 30% of its \
               responses in each Byzantine mode.  Requires --endpoints > 1."))

let pp_pool_health label (h : Xcw_rpc.Pool.health) =
  let state_name = function
    | Xcw_rpc.Pool.Active -> "active"
    | Xcw_rpc.Pool.Probation -> "probation"
    | Xcw_rpc.Pool.Quarantined -> "quarantined"
  in
  Format.printf
    "%s pool (quorum %d/%d): %d requests, %d disagreements, %d refusals@."
    label h.Xcw_rpc.Pool.ph_quorum
    (List.length h.Xcw_rpc.Pool.ph_endpoints)
    h.Xcw_rpc.Pool.ph_requests h.Xcw_rpc.Pool.ph_disagreements
    h.Xcw_rpc.Pool.ph_refusals;
  List.iter
    (fun (er : Xcw_rpc.Pool.endpoint_report) ->
      Format.printf
        "  endpoint %d: %-11s trust %.3f  (%d agreed, %d disagreed, %d \
         errors, %d quarantines)@."
        er.Xcw_rpc.Pool.er_index
        (state_name er.Xcw_rpc.Pool.er_state)
        er.Xcw_rpc.Pool.er_trust er.Xcw_rpc.Pool.er_agreements
        er.Xcw_rpc.Pool.er_disagreements er.Xcw_rpc.Pool.er_errors
        er.Xcw_rpc.Pool.er_quarantines)
    h.Xcw_rpc.Pool.ph_endpoints;
  match h.Xcw_rpc.Pool.ph_suspects with
  | [] -> ()
  | s ->
      Format.printf "  suspected Byzantine endpoint(s): %s@."
        (String.concat ", " (List.map string_of_int s))

(* Flush the default registry / tracer after a subcommand body ran. *)
let write_observability metrics_file trace_file =
  Option.iter
    (fun path ->
      Sink.write_prometheus_file ~path (Metrics.snapshot (Metrics.default ()));
      Format.printf "metrics written to %s@." path)
    metrics_file;
  Option.iter
    (fun path ->
      Sink.write_spans_file ~path (Span.records (Span.default ()));
      Format.printf "trace written to %s@." path)
    trace_file

let build_scenario kind scale seed =
  match kind with
  | Nomad -> (Xcw_workload.Nomad.build ~seed ~scale (), Decoder.nomad_plugin)
  | Ronin -> (Xcw_workload.Ronin.build ~seed ~scale (), Decoder.ronin_plugin)

let detect_cmd =
  let run kind attack exit_lane scale seed latency pool jobs report_file
      dataset_file dataset_csv_file rules_file dump_facts_dir metrics_file
      trace_file =
    let program = load_rules rules_file in
    let module Exit_bridge = Xcw_workload.Exit_bridge in
    let reseed_exit (base : Exit_bridge.base) =
      {
        base with
        Exit_bridge.b_seed = seed;
        b_base = { base.Exit_bridge.b_base with Generic.g_seed = seed };
      }
    in
    let built, plugin, label =
      match (kind, attack, exit_lane) with
      | Some _, Some _, _ | Some _, _, Some _ | _, Some _, Some _ ->
          Format.eprintf
            "xcw: --bridge, --attack and --exit are mutually exclusive@.";
          exit 2
      | None, None, None ->
          Format.eprintf
            "xcw: one of --bridge, --attack or --exit is required@.";
          exit 2
      | Some kind, None, None ->
          let built, plugin = build_scenario kind scale seed in
          (built, plugin, (match kind with Nomad -> "nomad" | Ronin -> "ronin"))
      | None, Some cls, None ->
          let spec = Attacks.default_spec cls in
          let spec =
            {
              spec with
              Attacks.a_base = { spec.Attacks.a_base with Generic.g_seed = seed };
            }
          in
          let inj = Attacks.build spec in
          ( inj.Attacks.inj_built,
            Decoder.ronin_plugin,
            "attack-" ^ Attacks.class_slug cls )
      | None, None, Some `Benign ->
          ( Exit_bridge.build_benign (reseed_exit Exit_bridge.default_base),
            Decoder.ronin_plugin,
            "exit" )
      | None, None, Some (`Class cls) ->
          let spec = Exit_bridge.default_spec cls in
          let spec =
            { spec with Exit_bridge.e_base = reseed_exit spec.Exit_bridge.e_base }
          in
          ( (Exit_bridge.build spec).Exit_bridge.inj_built,
            Decoder.ronin_plugin,
            "exit-" ^ Report.acc_class_slug cls )
    in
    let profile =
      match (latency, kind) with
      | `Colocated, _ -> Latency.colocated_profile
      | `Realistic, Some Nomad -> Latency.nomad_profile
      | `Realistic, _ -> Latency.ronin_profile
    in
    let input =
      Detector.default_input ~label ~plugin ~config:built.Scenario.config
        ~source_chain:built.Scenario.bridge.Bridge.source.Bridge.chain
        ~target_chain:built.Scenario.bridge.Bridge.target.Bridge.chain
        ~pricing:built.Scenario.pricing
    in
    let input =
      {
        input with
        Detector.i_source_profile = profile;
        i_target_profile = profile;
        i_first_window_withdrawal_id = built.Scenario.first_window_withdrawal_id;
        i_program = program;
      }
    in
    let input = pool input in
    let input = apply_jobs input jobs in
    let result = Detector.run input in
    Format.printf "%a@." Report.pp result.Detector.report;
    Option.iter
      (fun (sh, th) ->
        Format.printf "@.";
        pp_pool_health "source" sh;
        pp_pool_health "target" th)
      result.Detector.pool_health;
    let summary = Detector.attack_summary ~source_chain_id:1 result in
    if summary.Detector.as_events > 0 then
      Format.printf
        "@.ATTACK SIGNATURE: %d forged withdrawal event(s) across %d \
         transaction(s), $%.2fM with no correspondence on the other chain@."
        summary.Detector.as_events summary.Detector.as_transactions
        (summary.Detector.as_total_usd /. 1e6);
    Option.iter
      (fun f ->
        let oc = open_out f in
        output_string oc (Xcw_util.Json.to_string (Report.to_json result.Detector.report));
        close_out oc;
        Format.printf "report written to %s@." f)
      report_file;
    Option.iter
      (fun f ->
        let oc = open_out f in
        output_string oc (Report.dataset_json result.Detector.report);
        close_out oc;
        Format.printf "cctx dataset written to %s@." f)
      dataset_file;
    Option.iter
      (fun f ->
        let oc = open_out f in
        output_string oc (Report.dataset_csv result.Detector.report);
        close_out oc;
        Format.printf "cctx dataset (CSV) written to %s@." f)
      dataset_csv_file;
    Option.iter
      (fun dir ->
        Xcw_datalog.Engine.dump_facts result.Detector.db ~dir;
        Format.printf "fact base dumped to %s/*.facts@." dir)
      dump_facts_dir;
    write_observability metrics_file trace_file
  in
  Cmd.v
    (Cmd.info "detect" ~doc:"Generate a bridge scenario and run anomaly detection")
    Term.(
      const run $ opt_bridge_arg $ attack_arg $ exit_arg $ scale_arg $ seed_arg
      $ latency_arg $ endpoints_arg $ jobs_arg
      $ report_arg $ dataset_arg $ dataset_csv_arg $ rules_file_arg
      $ dump_facts_arg $ metrics_arg $ trace_arg)

let state_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:
          "Durable state directory.  Polls are checkpointed to a \
           crash-safe WAL + snapshot store under $(docv); re-running \
           with the same directory recovers the last durable state and \
           resumes instead of starting over.  Alerts already durable at \
           the crash boundary are re-delivered once on startup \
           (dedupable by their sequence number).")

(* A state directory the OS refuses — a path through a regular file,
   say — or one holding a damaged snapshot is a usage error naming the
   flag, not an uncaught exception from deep inside the store. *)
let opening_state_dir state_dir f =
  match state_dir with
  | None -> f ()
  | Some dir -> (
      let fail msg =
        Format.eprintf "xcw: --state-dir %s: %s@." dir msg;
        exit 2
      in
      try f () with
      | Unix.Unix_error (e, fn, arg) ->
          fail (Printf.sprintf "%s (%s %s)" (Unix.error_message e) fn arg)
      | Sys_error msg | Xcw_store.Store.Damaged_snapshot msg -> fail msg)

let monitor_cmd =
  let run kind scale seed interval_hours pool jobs state_dir metrics_file
      trace_file =
    let built, plugin = build_scenario kind scale seed in
    let module Monitor = Xcw_core.Monitor in
    let module Chain = Xcw_chain.Chain in
    let input =
      Detector.default_input
        ~label:(match kind with Nomad -> "nomad" | Ronin -> "ronin")
        ~plugin ~config:built.Scenario.config
        ~source_chain:built.Scenario.bridge.Bridge.source.Bridge.chain
        ~target_chain:built.Scenario.bridge.Bridge.target.Bridge.chain
        ~pricing:built.Scenario.pricing
    in
    let input =
      {
        input with
        Detector.i_first_window_withdrawal_id =
          built.Scenario.first_window_withdrawal_id;
      }
    in
    let input = pool input in
    let input = apply_jobs input jobs in
    let ckpt =
      opening_state_dir state_dir (fun () ->
          Option.map (fun dir -> Monitor.Checkpoint.open_ ~dir ()) state_dir)
    in
    let mon = Monitor.create ?checkpoint:ckpt input in
    (match Monitor.replayed mon with
    | [] -> ()
    | replay ->
        Format.printf
          "recovered %d durable poll(s); re-delivering %d alert(s) from \
           the last durable poll (dedup by seq <= %d)@."
          (Monitor.polls mon) (List.length replay) (Monitor.alert_seq mon));
    let src_blocks =
      Chain.all_blocks built.Scenario.bridge.Bridge.source.Bridge.chain
    in
    let dst_blocks =
      Chain.all_blocks built.Scenario.bridge.Bridge.target.Bridge.chain
    in
    let cursor_at blocks t =
      List.fold_left
        (fun acc (blk : Xcw_evm.Types.block) ->
          if blk.Xcw_evm.Types.b_timestamp <= t then
            max acc blk.Xcw_evm.Types.b_number
          else acc)
        0 blocks
    in
    let t1, t2 = built.Scenario.window in
    let interval = interval_hours * 3600 in
    let t = ref t1 in
    let total_alerts = ref 0 in
    Format.printf
      "replaying the %s timeline through the streaming monitor (poll every %d h)@."
      input.Detector.i_label interval_hours;
    while !t <= t2 do
      let alerts =
        Monitor.poll mon
          ~source_block:(cursor_at src_blocks !t)
          ~target_block:(cursor_at dst_blocks !t)
      in
      List.iter
        (fun (a : Monitor.alert) ->
          incr total_alerts;
          if a.Monitor.al_anomaly.Report.a_usd_value > 10_000.0 then
            Format.printf "t=%d ALERT [%s] %s: %s ($%.0f)@." !t
              a.Monitor.al_rule
              (Report.class_name a.Monitor.al_anomaly.Report.a_class)
              a.Monitor.al_anomaly.Report.a_tx_hash
              a.Monitor.al_anomaly.Report.a_usd_value)
        alerts;
      t := !t + interval
    done;
    Format.printf
      "@.%d alerts over %d polls (only alerts above $10K were printed)@."
      !total_alerts (Monitor.polls mon);
    Option.iter
      (fun (sh, th) ->
        Format.printf "@.";
        pp_pool_health "source" sh;
        pp_pool_health "target" th)
      (Monitor.pool_health mon);
    Option.iter Monitor.Checkpoint.close ckpt;
    write_observability metrics_file trace_file
  in
  (* The replay loop advances by the interval: a non-positive one
     would never reach the window's end. *)
  let interval_arg =
    int_arg ~min:1 "interval" 24 ~docv:"HOURS" ~doc:"Polling interval in hours."
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Replay a scenario through the streaming monitor, printing alerts")
    Term.(
      const run $ bridge_arg $ scale_arg $ seed_arg $ interval_arg
      $ endpoints_arg $ jobs_arg
      $ state_dir_arg $ metrics_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* fleet: run N bridge monitors under one supervisor                   *)

let fleet_state_name = function
  | Supervisor.Active -> "active"
  | Supervisor.Degraded -> "degraded"
  | Supervisor.Probation -> "probation"
  | Supervisor.Parked { until; term } ->
      Printf.sprintf "parked(until r%d, term %d)" until term

let print_fleet_table (h : Supervisor.health) =
  List.iter
    (fun (lh : Supervisor.lane_health) ->
      Format.printf "  [%d] %-24s %-10s polls %-3d alerts %-4d lag %-5d%s@."
        lh.Supervisor.lh_index lh.Supervisor.lh_name
        (fleet_state_name lh.Supervisor.lh_state)
        lh.Supervisor.lh_polls lh.Supervisor.lh_alerts lh.Supervisor.lh_lag
        (match lh.Supervisor.lh_last_error with
        | Some e when lh.Supervisor.lh_failures > 0 || lh.Supervisor.lh_trips > 0
          ->
            "  last: " ^ e
        | _ -> ""))
    h.Supervisor.fh_lanes

let fleet_cmd =
  let run bridges generics scale seed rounds sync_rounds jobs fault_lanes
      byz_lanes budget window state_dir metrics_file trace_file =
    let kinds =
      List.map
        (fun slug ->
          match Presets.kind_of_string slug with
          | Ok k -> k
          | Error msg ->
              Format.eprintf "xcw: %s@." msg;
              exit 2)
        (String.split_on_char ',' bridges |> List.filter (( <> ) ""))
    in
    let kinds =
      kinds @ List.init generics (fun _ -> Presets.Generic_kind Generic.default_spec)
    in
    if kinds = [] then begin
      Format.eprintf "xcw: empty fleet (--bridges or --generics required)@.";
      exit 2
    end;
    let n = List.length kinds in
    let check_lane what = function
      | j when j < 0 || j >= n ->
          Format.eprintf "xcw: %s %d out of range for %d lanes@." what j n;
          exit 2
      | _ -> ()
    in
    List.iter (check_lane "--fault-lane") fault_lanes;
    List.iter (check_lane "--byzantine-lane") byz_lanes;
    (* Unique lane names: duplicate kinds get a #k suffix. *)
    let seen = Hashtbl.create 8 in
    let lanes =
      List.mapi
        (fun i kind ->
          let label = Presets.kind_slug kind in
          let name =
            match Hashtbl.find_opt seen label with
            | None ->
                Hashtbl.replace seen label 1;
                label
            | Some k ->
                Hashtbl.replace seen label (k + 1);
                Printf.sprintf "%s#%d" label (k + 1)
          in
          let tweak input =
            let input =
              { input with Detector.i_rpc_seed = seed + (i * 101) }
            in
            let input =
              if List.mem i fault_lanes then
                {
                  input with
                  Detector.i_source_fault = Some Xcw_rpc.Fault.moderate;
                  i_target_fault = Some Xcw_rpc.Fault.moderate;
                }
              else input
            in
            if List.mem i byz_lanes then
              (* Two liars out of three put the 2-of-3 quorum past its
                 f < k guarantee: when the independently-seeded liars
                 happen to agree they outvote the honest endpoint, so the
                 lane's own stream corrupts (false alerts, divergence
                 stalls) — but the damage stays in-lane; the rest of the
                 fleet keeps its cadence and its exact solo streams. *)
              let efs =
                [ None; Some Xcw_rpc.Fault.byzantine; Some Xcw_rpc.Fault.byzantine ]
              in
              {
                input with
                Detector.i_endpoints = 3;
                i_quorum = 2;
                i_source_endpoint_faults = efs;
                i_target_endpoint_faults = efs;
              }
            else input
          in
          Presets.lane ~scale ~seed:(seed + (i * 17)) ~rounds_to_sync:sync_rounds
            ~name ~tweak kind)
        kinds
    in
    let sup =
      opening_state_dir state_dir (fun () ->
          Supervisor.create ~ndomains:jobs ~dedup_window:window
            ?poll_budget:budget ?state_dir lanes)
    in
    Format.printf "fleet of %d bridge lane(s), %d round(s), --jobs %d@." n
      rounds jobs;
    (match Supervisor.replayed sup with
    | [] -> ()
    | replay ->
        Format.printf
          "recovered %d durable round(s); re-delivering %d alert(s) from \
           the last durable round (dedup by fa_seq)@."
          (Supervisor.rounds sup) (List.length replay));
    for _ = 1 to rounds do
      let emitted = Supervisor.poll sup in
      let h = Supervisor.health sup in
      Format.printf "@.round %d/%d  emitted +%d  collapsed %d  parked %d  lag %d@."
        h.Supervisor.fh_rounds rounds (List.length emitted)
        h.Supervisor.fh_collapsed h.Supervisor.fh_parked h.Supervisor.fh_lag;
      print_fleet_table h;
      List.iter
        (fun (fa : Bus.fleet_alert) ->
          let a = fa.Bus.fa_alert.Xcw_core.Monitor.al_anomaly in
          if a.Report.a_usd_value > 10_000.0 then
            Format.printf "  ALERT #%d [%s] %s %s: %s ($%.0f)@." fa.Bus.fa_seq
              fa.Bus.fa_bridge fa.Bus.fa_alert.Xcw_core.Monitor.al_rule
              (Report.class_name a.Report.a_class)
              a.Report.a_tx_hash a.Report.a_usd_value)
        emitted
    done;
    let h = Supervisor.health sup in
    Format.printf
      "@.alert bus: %d emitted, %d cross-bridge duplicates collapsed@."
      h.Supervisor.fh_emitted h.Supervisor.fh_collapsed;
    List.iter
      (fun (fa : Bus.fleet_alert) ->
        if List.length fa.Bus.fa_origins > 1 then
          Format.printf "  #%d first seen on %s, also raised by %s@."
            fa.Bus.fa_seq fa.Bus.fa_bridge
            (String.concat ", "
               (List.tl fa.Bus.fa_origins
               |> List.map (fun (o : Bus.origin) ->
                      Printf.sprintf "%s (round %d)" o.Bus.o_bridge o.Bus.o_round))))
      (Supervisor.alerts sup);
    write_observability metrics_file trace_file
  in
  let bridges_arg =
    Arg.(
      value
      & opt string "nomad,ronin,generic,attack-forged-proof"
      & info [ "bridges" ] ~docv:"LIST"
          ~doc:
            "Comma-separated lane kinds: nomad, ronin, generic, \
             attack-<class> (e.g. attack-forged-proof), exit, or \
             exit-<class> (e.g. exit-slashing-evasion).  Each lane gets \
             its own scenario seed.")
  in
  let generics_arg =
    int_arg ~min:0 "generics" 0 ~docv:"N"
      ~doc:"Append $(docv) extra generic-bridge lanes to the fleet."
  in
  let rounds_arg =
    int_arg ~min:0 "rounds" 12 ~docv:"N" ~doc:"Fleet poll rounds to run."
  in
  let sync_rounds_arg =
    int_arg ~min:1 "sync-rounds" 8 ~docv:"N"
      ~doc:
        "Rounds over which each lane's schedule replays its scenario \
         window before holding at the chain heads."
  in
  let fleet_jobs_arg =
    int_arg ~aliases:[ "j" ] ~min:1 "jobs" 1 ~docv:"N"
      ~doc:
        "Worker domains polling lanes concurrently.  Fleet output is \
         identical at any value (lanes are polled in index order and \
         merged deterministically)."
  in
  let fault_lane_arg =
    Arg.(
      value & opt_all int []
      & info [ "fault-lane" ] ~docv:"IDX"
          ~doc:
            "Inject the moderate RPC fault plan into lane $(docv) \
             (repeatable).  The lane degrades and catches up; the rest \
             of the fleet keeps its cadence.")
  in
  let byz_lane_arg =
    Arg.(
      value & opt_all int []
      & info [ "byzantine-lane" ] ~docv:"IDX"
          ~doc:
            "Give lane $(docv) a 3-endpoint/2-quorum pool with two \
             Byzantine endpoints — past the f < k guarantee, so \
             agreeing lies can outvote the honest endpoint.  The lane's \
             own stream corrupts or stalls; the rest of the fleet is \
             untouched (repeatable).")
  in
  let budget_arg =
    Term.(
      const (function
        | Some b when b < 1 -> usage_error "--budget %d must be at least 1" b
        | budget -> budget)
      $ Arg.(
          value
          & opt (some int) None
          & info [ "budget" ] ~docv:"BLOCKS"
              ~doc:
                "Per-round poll budget: each lane's cursors advance at \
                 most $(docv) blocks per side per round (at least 1)."))
  in
  let window_arg =
    int_arg ~min:0 "dedup-window" 16 ~docv:"ROUNDS"
      ~doc:
        "Alert-bus dedup horizon: identical signatures from several \
         bridges within $(docv) rounds collapse into one alert."
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run a configured fleet of bridge monitors under one supervisor \
          with per-bridge fault isolation and a unified alert bus")
    Term.(
      const run $ bridges_arg $ generics_arg $ scale_arg $ seed_arg
      $ rounds_arg $ sync_rounds_arg $ fleet_jobs_arg $ fault_lane_arg
      $ byz_lane_arg $ budget_arg $ window_arg $ state_dir_arg
      $ metrics_arg $ trace_arg)

let rules_cmd =
  let run () =
    Format.printf "XChainWatcher cross-chain rules (%d total)@.@." Rules.rule_count;
    List.iter
      (fun r -> Format.printf "%a@.@." Xcw_datalog.Ast.pp_rule r)
      Rules.all_rules
  in
  Cmd.v
    (Cmd.info "rules" ~doc:"Print the cross-chain Datalog rules")
    Term.(const run $ const ())

let config_cmd =
  let run kind scale seed =
    let built, _ = build_scenario kind scale seed in
    print_endline (Config.to_string built.Scenario.config)
  in
  Cmd.v
    (Cmd.info "config" ~doc:"Print a bridge's static configuration as JSON")
    Term.(const run $ bridge_arg $ scale_arg $ seed_arg)

let timeframes_cmd =
  let run () =
    List.iter
      (fun tf -> Format.printf "%a@." Xcw_workload.Timeframes.pp tf)
      Xcw_workload.Timeframes.rows
  in
  Cmd.v
    (Cmd.info "timeframes" ~doc:"Print the data-extraction timeframes (Table 1)")
    Term.(const run $ const ())

let () =
  let doc = "logic-driven anomaly detection for cross-chain bridges" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "xcw" ~version:"1.0.0" ~doc)
          [
            detect_cmd; monitor_cmd; fleet_cmd; rules_cmd; config_cmd;
            timeframes_cmd;
          ]))
