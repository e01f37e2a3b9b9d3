(** The anomaly detector — orchestrates the three phases of
    XChainWatcher: decode (via {!Decoder} over the RPC facade), build
    logic relations ({!Facts} into the Datalog database), and evaluate
    the cross-chain rules ({!Rules}).  The derived relations are then
    dissected into the classified anomaly report ({!Report}) that
    reproduces Tables 3 and 4 of the paper. *)


module Chain = Xcw_chain.Chain
module Rpc = Xcw_rpc.Rpc
module Client = Xcw_rpc.Client
module Fault = Xcw_rpc.Fault
module Latency = Xcw_rpc.Latency
module Engine = Xcw_datalog.Engine

type input = {
  i_label : string;
  i_plugin : Decoder.plugin;
  i_config : Config.t;
  i_source_chain : Chain.t;
  i_target_chain : Chain.t;
  i_source_profile : Latency.profile;
  i_target_profile : Latency.profile;
  i_pricing : Pricing.t;
  i_first_window_withdrawal_id : int option;
      (** withdrawals on S with an id below this were requested on T
          before the collection window; classified as FPs, as the paper
          does for Ronin (Section 5.2.5) *)
  i_rpc_seed : int;
  i_program : Xcw_datalog.Ast.program;
      (** the rules to evaluate; defaults to the shipped
          {!Rules.program}, replaceable with rules parsed from a [.dl]
          file ({!Xcw_datalog.Parser}).  The dissection expects the
          standard relation names to be present. *)
  i_source_fault : Fault.plan option;
  i_target_fault : Fault.plan option;
      (** fault plans injected into the per-chain RPC facades; [None]
          (the default) keeps every request infallible *)
  i_client_policy : Client.policy;
      (** retry/backoff policy of the resilient client wrapped around
          each facade *)
  i_endpoints : int;
      (** RPC endpoints per chain; above 1 every read goes through a
          quorum {!Xcw_rpc.Pool} of independently seeded facades *)
  i_quorum : int;
      (** k-of-n agreement required by the pool (ignored with a single
          endpoint) *)
  i_source_endpoint_faults : Fault.plan option list;
  i_target_endpoint_faults : Fault.plan option list;
      (** per-endpoint fault overrides, by endpoint index: an entry
          replaces the side-wide plan for that endpoint ([None] = that
          endpoint is faultless); indices beyond the list fall back to
          [i_source_fault]/[i_target_fault].  This is how tests make
          exactly one endpoint Byzantine. *)
  i_ndomains : int;
      (** worker domains for rule evaluation and log decoding
          ({!Engine.run} / {!Decoder.decode_chain}); 1 (the default)
          runs the sequential paths untouched *)
}

let default_input ~label ~plugin ~config ~source_chain ~target_chain ~pricing =
  {
    i_label = label;
    i_plugin = plugin;
    i_config = config;
    i_source_chain = source_chain;
    i_target_chain = target_chain;
    i_source_profile = Latency.colocated_profile;
    i_target_profile = Latency.colocated_profile;
    i_pricing = pricing;
    i_first_window_withdrawal_id = None;
    i_rpc_seed = 7;
    i_program = Rules.program;
    i_source_fault = None;
    i_target_fault = None;
    i_client_policy = Client.default_policy;
    i_endpoints = 1;
    i_quorum = 1;
    i_source_endpoint_faults = [];
    i_target_endpoint_faults = [];
    i_ndomains = 1;
  }

(* Build one side's client: a plain single-endpoint client, or — with
   [endpoints > 1] — a quorum pool of independently seeded facades over
   the same chain.  Endpoint 0 keeps exactly the single-endpoint seed,
   so its latency/fault streams match a non-pooled run. *)
let build_client ?metrics ~profile ~seed ~policy ~endpoints ~quorum ~fault
    ~endpoint_faults chain =
  if endpoints <= 1 then
    Rpc.create ~profile ~seed ?fault ?metrics chain
    |> Client.create ~policy ~seed ?metrics
  else begin
    let eps =
      List.init endpoints (fun j ->
          let fault =
            match List.nth_opt endpoint_faults j with
            | Some override -> override
            | None -> fault
          in
          Rpc.create ~profile ~seed:(seed + (j * 7919)) ?fault ?metrics chain)
    in
    let pool =
      Xcw_rpc.Pool.create
        ~policy:{ Xcw_rpc.Pool.default_policy with q_quorum = quorum }
        ?metrics eps
    in
    Client.create_pooled ~policy ~seed ?metrics pool
  end

type result = {
  report : Report.t;
  db : Engine.db;  (** full Datalog database, for ad-hoc queries *)
  decode_results : (Decoder.chain_role * Decoder.receipt_decode) list;
  decode_errors : Decoder.decode_error list;
  rule_stats : Engine.stats;
  pool_health : (Xcw_rpc.Pool.health * Xcw_rpc.Pool.health) option;
      (** (source, target) quorum-pool reports when [i_endpoints > 1];
          [ph_suspects] names the endpoints caught lying *)
}

(* ------------------------------------------------------------------ *)

let run (input : input) : result =
  Engine.recommended_gc_setup ();
  let config = input.i_config in
  (* Phase 1+2: decode receipts and build relations. *)
  let t0 = Unix.gettimeofday () in
  let src_client =
    build_client ~profile:input.i_source_profile ~seed:input.i_rpc_seed
      ~policy:input.i_client_policy ~endpoints:input.i_endpoints
      ~quorum:input.i_quorum ~fault:input.i_source_fault
      ~endpoint_faults:input.i_source_endpoint_faults input.i_source_chain
  in
  let dst_client =
    build_client ~profile:input.i_target_profile ~seed:(input.i_rpc_seed + 1)
      ~policy:input.i_client_policy ~endpoints:input.i_endpoints
      ~quorum:input.i_quorum ~fault:input.i_target_fault
      ~endpoint_faults:input.i_target_endpoint_faults input.i_target_chain
  in
  let src_decoded =
    Decoder.decode_chain ~ndomains:input.i_ndomains input.i_plugin config
      ~role:Decoder.Source src_client input.i_source_chain
  in
  let dst_decoded =
    Decoder.decode_chain ~ndomains:input.i_ndomains input.i_plugin config
      ~role:Decoder.Target dst_client input.i_target_chain
  in
  let db = Engine.create_db () in
  ignore (Facts.load_all db (Config.to_facts config));
  List.iter
    (fun (rd : Decoder.receipt_decode) ->
      ignore (Facts.load_all db rd.Decoder.rd_facts))
    (src_decoded @ dst_decoded);
  let decode_seconds = Unix.gettimeofday () -. t0 in
  let total_facts = Engine.total_tuples db in
  (* Phase 3: evaluate the cross-chain rules. *)
  let t1 = Unix.gettimeofday () in
  let rule_stats =
    Engine.run ~ndomains:input.i_ndomains ~aggregates:Rules.aggregates db
      input.i_program
  in
  let eval_seconds = Unix.gettimeofday () -. t1 in
  let all_decode_errors =
    List.concat_map (fun rd -> rd.Decoder.rd_errors) (src_decoded @ dst_decoded)
  in
  let report =
    Dissect.dissect ~label:input.i_label ~config ~pricing:input.i_pricing
      ~first_window_withdrawal_id:input.i_first_window_withdrawal_id
      ~decode_errors:all_decode_errors ~db ~decode_seconds ~eval_seconds
      ~simulated_rpc_seconds:
        (Client.total_latency src_client +. Client.total_latency dst_client)
      ~total_facts ()
  in
  {
    report;
    db;
    decode_results =
      List.map (fun rd -> (Decoder.Source, rd)) src_decoded
      @ List.map (fun rd -> (Decoder.Target, rd)) dst_decoded;
    decode_errors = all_decode_errors;
    rule_stats;
    pool_health =
      (match (Client.pool src_client, Client.pool dst_client) with
      | Some sp, Some dp ->
          Some (Xcw_rpc.Pool.health sp, Xcw_rpc.Pool.health dp)
      | _ -> None);
  }

(* ------------------------------------------------------------------ *)
(* Attack summary (Section 5.2.5 / Finding 8)                          *)

type attack_summary = {
  as_events : int;  (** unmatched S withdrawals with no correspondence *)
  as_transactions : int;  (** unique transaction hashes *)
  as_beneficiaries : int;  (** unique receiving addresses *)
  as_total_usd : float;
}

(** Summarize the forged-withdrawal evidence (rule 8, S-side events
    with no counterpart on T, excluding pre-window FPs) — the Ronin and
    Nomad attack signatures of Section 5.2.5. *)
let attack_summary ~source_chain_id (r : result) : attack_summary =
  let row8 =
    List.find
      (fun row -> row.Report.rr_rule = "8. CCTX_ValidWithdrawal")
      r.report.Report.rows
  in
  let forged =
    List.filter
      (fun a ->
        a.Report.a_class = Report.No_correspondence
        && a.Report.a_chain_id = source_chain_id)
      row8.Report.rr_anomalies
  in
  let uniq f xs = List.sort_uniq compare (List.map f xs) in
  (* The unmatched-withdrawal detail string ends with
     "beneficiary <addr>"; extract the address for uniqueness. *)
  let beneficiary_of_detail detail =
    match String.rindex_opt detail ' ' with
    | Some i -> String.sub detail (i + 1) (String.length detail - i - 1)
    | None -> detail
  in
  {
    as_events = List.length forged;
    as_transactions = List.length (uniq (fun a -> a.Report.a_tx_hash) forged);
    as_beneficiaries =
      List.length (uniq (fun a -> beneficiary_of_detail a.Report.a_detail) forged);
    as_total_usd =
      List.fold_left (fun acc a -> acc +. a.Report.a_usd_value) 0.0 forged;
  }
