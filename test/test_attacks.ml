(* Attack-pack harness (2023 hack corpus, DESIGN.md §12).

   Four axes, one suite:
   - exactness: each class's dedicated rule flags exactly the injected
     transactions, and the other three classes stay silent;
   - soundness: the benign twin of every pack produces zero attack hits
     and zero anomalies;
   - robustness: for every class, the attack report is identical across
     {clean, moderate RPC faults, 3-endpoint/2-quorum with one
     Byzantine liar} x {--jobs 1, --jobs 4} (timings and fact totals
     excluded — faults cost simulated time by design);
   - coverage: every rule of the cross-chain program derives at least
     one tuple in at least one scenario of the corpus (nomad, ronin,
     generic, the four packs), modulo an explicit skip-list of
     intentionally-latent rules. *)

module U256 = Xcw_uint256.Uint256
module Address = Xcw_evm.Address
module Types = Xcw_evm.Types
module Chain = Xcw_chain.Chain
module Erc20 = Xcw_chain.Erc20
module Bridge = Xcw_bridge.Bridge
module Events = Xcw_bridge.Events
module Config = Xcw_core.Config
module Pricing = Xcw_core.Pricing
module Fault = Xcw_rpc.Fault
module Pool = Xcw_rpc.Pool
module Ast = Xcw_datalog.Ast
module Engine = Xcw_datalog.Engine
module Naive = Xcw_datalog.Naive
module Detector = Xcw_core.Detector
module Decoder = Xcw_core.Decoder
module Facts = Xcw_core.Facts
module Report = Xcw_core.Report
module Rules = Xcw_core.Rules
module Scenario = Xcw_workload.Scenario
module Generic = Xcw_workload.Generic
module Attacks = Xcw_workload.Attacks
module Exit_bridge = Xcw_workload.Exit_bridge
module Nomad = Xcw_workload.Nomad
module Ronin = Xcw_workload.Ronin

let attack_input (b : Scenario.built) =
  Detector.default_input ~label:"attack" ~plugin:Decoder.ronin_plugin
    ~config:b.Scenario.config
    ~source_chain:b.Scenario.bridge.Bridge.source.Bridge.chain
    ~target_chain:b.Scenario.bridge.Bridge.target.Bridge.chain
    ~pricing:b.Scenario.pricing

let detect (b : Scenario.built) = Detector.run (attack_input b)

let hits_txs (r : Report.t) cls =
  match Report.attack_row r cls with
  | None -> Alcotest.failf "missing attack row for %s" (Attacks.class_slug cls)
  | Some row ->
      List.sort compare
        (List.map (fun h -> h.Report.ah_tx_hash) row.Report.ar_hits)

(* ------------------------------------------------------------------ *)
(* Exactness: dedicated rule <-> injected transactions                  *)

let check_exactness cls () =
  let inj = Attacks.build (Attacks.default_spec cls) in
  let r = (detect inj.Attacks.inj_built).Detector.report in
  Alcotest.(check (list string))
    (Attacks.class_slug cls ^ ": rule flags exactly the injected txs")
    inj.Attacks.inj_attack_txs (hits_txs r cls);
  List.iter
    (fun other ->
      if other <> cls then
        Alcotest.(check (list string))
          (Attacks.class_slug other ^ " stays silent")
          [] (hits_txs r other))
    Report.attack_classes;
  (* The injection is non-trivial and the class rows carry priced,
     id-tagged evidence. *)
  Alcotest.(check int)
    "three injected attack txs" 3
    (List.length inj.Attacks.inj_attack_txs);
  match Report.attack_row r cls with
  | None -> assert false
  | Some row ->
      List.iter
        (fun h ->
          Alcotest.(check bool) "hit carries an id" true (h.Report.ah_id >= 0);
          Alcotest.(check bool) "hit is priced" true (h.Report.ah_usd_value > 0.))
        row.Report.ar_hits

(* ------------------------------------------------------------------ *)
(* Soundness: the benign twin is clean                                  *)

let check_benign_twin cls () =
  let spec = Attacks.default_spec cls in
  let r = (detect (Attacks.benign_twin spec)).Detector.report in
  Alcotest.(check int)
    (Attacks.class_slug cls ^ " twin: zero attack hits")
    0
    (Report.total_attack_hits r);
  Alcotest.(check int)
    (Attacks.class_slug cls ^ " twin: zero anomalies")
    0 (Report.total_anomalies r)

(* ------------------------------------------------------------------ *)
(* Robustness: clean / faulty / quorum x jobs 1 / 4                     *)

(* Everything output-facing except wall/simulated timings and the fact
   total (fault plans add trace gaps and retries; the verdict must not
   move). *)
let signature (r : Report.t) =
  let anomaly (a : Report.anomaly) =
    ( Report.class_name a.Report.a_class,
      a.Report.a_tx_hash,
      a.Report.a_chain_id,
      a.Report.a_usd_value )
  in
  let row (row : Report.rule_row) =
    ( row.Report.rr_rule,
      row.Report.rr_captured,
      List.sort compare (List.map anomaly row.Report.rr_anomalies) )
  in
  let attack_row (ar : Report.attack_row) =
    ( Report.attack_class_name ar.Report.ar_class,
      ar.Report.ar_rule,
      List.map
        (fun h ->
          ( h.Report.ah_tx_hash,
            h.Report.ah_chain_id,
            h.Report.ah_id,
            h.Report.ah_usd_value,
            h.Report.ah_detail ))
        ar.Report.ar_hits )
  in
  ( r.Report.bridge_name,
    List.map row r.Report.rows,
    List.map attack_row r.Report.attack_rows,
    List.map (fun (c : Report.cctx) -> (c.Report.c_src_tx, c.Report.c_dst_tx))
      r.Report.cctxs )

let variants input =
  let quorum_faults = [ None; None; Some Fault.byzantine ] in
  [
    ("clean", input);
    ( "moderate-faults",
      {
        input with
        Detector.i_source_fault = Some Fault.moderate;
        i_target_fault = Some Fault.moderate;
      } );
    ( "quorum-3-2-one-liar",
      {
        input with
        Detector.i_endpoints = 3;
        i_quorum = 2;
        i_source_endpoint_faults = quorum_faults;
        i_target_endpoint_faults = quorum_faults;
      } );
  ]

let check_matrix cls () =
  let inj = Attacks.build (Attacks.default_spec cls) in
  let input = attack_input inj.Attacks.inj_built in
  let reference = ref None in
  List.iter
    (fun (vname, vinput) ->
      List.iter
        (fun jobs ->
          let result =
            Detector.run { vinput with Detector.i_ndomains = jobs }
          in
          let s = signature result.Detector.report in
          (match !reference with
          | None -> reference := Some s
          | Some s0 ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s/--jobs %d matches the clean run"
                   (Attacks.class_slug cls) vname jobs)
                true (s = s0));
          if vname = "quorum-3-2-one-liar" then
            match result.Detector.pool_health with
            | None -> Alcotest.fail "expected pool health from a quorum run"
            | Some (sh, th) ->
                Alcotest.(check (list int))
                  "source pool names the liar" [ 2 ] sh.Pool.ph_suspects;
                Alcotest.(check (list int))
                  "target pool names the liar" [ 2 ] th.Pool.ph_suspects)
        [ 1; 4 ])
    (variants input)

(* ------------------------------------------------------------------ *)
(* Generator soundness (qcheck): twin + injection = attacked scenario   *)

let arb_attack_spec =
  QCheck.(
    map
      (fun (seed, cls_ix, count) ->
        let cls = List.nth Report.attack_classes (cls_ix mod 4) in
        {
          (Attacks.default_spec cls) with
          Attacks.a_count = count;
          a_base =
            {
              (Attacks.default_spec cls).Attacks.a_base with
              Generic.g_seed = seed;
              g_erc20_deposits = 6;
              g_native_deposits = 2;
              g_withdrawals = 2;
              g_via_aggregator = 1;
            };
        })
      (triple (int_range 1 50_000) (int_bound 3) (int_bound 4)))

let prop_twin_differential =
  QCheck.Test.make
    ~name:"attacked scenario = benign twin + exactly the injected txs"
    ~count:(Xcw_testlib.qcount 6) arb_attack_spec (fun spec ->
      let inj = Attacks.build spec in
      let twin_txs = Attacks.all_txs (Attacks.benign_twin spec) in
      let attacked_txs = Attacks.all_txs inj.Attacks.inj_built in
      let module S = Set.Make (String) in
      let twin = S.of_list twin_txs and injected = S.of_list inj.Attacks.inj_txs in
      S.equal (S.of_list attacked_txs) (S.union twin injected)
      && S.is_empty (S.inter twin injected)
      && S.subset (S.of_list inj.Attacks.inj_attack_txs) injected
      && List.length inj.Attacks.inj_attack_txs = spec.Attacks.a_count)

let prop_deterministic =
  QCheck.Test.make ~name:"attack packs are deterministic per spec"
    ~count:(Xcw_testlib.qcount 3) arb_attack_spec (fun spec ->
      let a = Attacks.build spec and b = Attacks.build spec in
      Attacks.all_txs a.Attacks.inj_built = Attacks.all_txs b.Attacks.inj_built
      && a.Attacks.inj_attack_txs = b.Attacks.inj_attack_txs)

(* ------------------------------------------------------------------ *)
(* Rule coverage audit                                                  *)

(* Rules whose firing the corpus deliberately does not exercise, as
   "NN:head_pred" (rule index in {!Rules.all_rules}).  Every entry must
   stay genuinely uncovered — a skip-listed rule that starts firing
   fails the audit too, forcing the list to shrink.

   sc_deposit_event_no_escrow is defense-in-depth for real-chain data:
   the simulated bridge cannot emit a deposit event without moving the
   escrow in the same transaction, so no end-to-end scenario can reach
   it (the rule itself is unit-covered in test_rules.ml). *)
let coverage_skip_list = [ "19:sc_deposit_event_no_escrow" ]

(* The two withdrawal-rule variants the calibrated workloads never hit:
   a native T-side withdrawal released before T finality elapses
   (Finding 4's native shape) and a stolen-quorum release of an
   honestly requested withdrawal to a different beneficiary. *)
let edge_input () =
  let s =
    Chain.create ~chain_id:1 ~name:"s" ~finality_seconds:60
      ~genesis_time:1_650_000_000
  in
  let t =
    Chain.create ~chain_id:2 ~name:"t" ~finality_seconds:45
      ~genesis_time:1_650_000_000
  in
  let b =
    Bridge.create
      {
        Bridge.s_label = "edge";
        s_source_chain = s;
        s_target_chain = t;
        s_escrow = Bridge.Lock_unlock;
        s_acceptance =
          Bridge.Multisig
            {
              threshold = 2;
              validator_count = 3;
              compromised_keys = 0;
              (* Ronin-style: the validators do not enforce finality,
                 so early releases succeed instead of reverting. *)
              enforce_source_finality = false;
            };
        s_beneficiary_repr = Events.B_address;
        s_buggy_unmapped_withdrawal = false;
      }
  in
  let m = Bridge.register_token_pair b ~name:"Edge" ~symbol:"EDG" ~decimals:18 in
  ignore (Bridge.register_target_native_mapping b ~name:"Wrapped T" ~symbol:"WT");
  let config = Config.of_bridge b in
  let user = Address.of_seed "edge-user" in
  let mallory = Address.of_seed "edge-mallory" in
  let eth = Scenario.eth_to_wei in
  Chain.fund s user (eth 10.0);
  Chain.fund t user (eth 10.0);
  Chain.fund s mallory (eth 1.0);
  ignore
    (Chain.submit_tx s ~from_:b.Bridge.source.Bridge.operator
       ~to_:m.Bridge.m_src_token
       ~input:(Erc20.mint_calldata ~to_:user ~amount:(U256.of_int 5_000))
       ());
  (* Seed: a completed deposit funds the S escrow and gives the user
     T-side tokens to withdraw. *)
  let d =
    Bridge.deposit_erc20 b ~user ~src_token:m.Bridge.m_src_token
      ~amount:(U256.of_int 5_000) ~beneficiary:user
  in
  ignore (Bridge.complete_deposit b ~deposit:d);
  (* Native withdrawal released 5 s after the request (T finality is
     45 s): the native finality-violation variant. *)
  Chain.advance_time t 3600;
  let wn =
    Bridge.request_withdrawal_native b ~user ~amount:(eth 1.0)
      ~beneficiary:user
  in
  (match
     (Bridge.execute_withdrawal ~delay:5 b ~withdrawal:wn).Types.r_status
   with
  | Types.Success -> ()
  | _ -> Alcotest.fail "edge: early native release reverted");
  (* Honest request of 2000 by the user, released to mallory by a
     stolen quorum: the beneficiary-mismatch variant. *)
  Chain.advance_time t 3600;
  let w =
    Bridge.request_withdrawal b ~user ~dst_token:m.Bridge.m_dst_token
      ~amount:(U256.of_int 2_000) ~beneficiary:user
  in
  (match w.Bridge.w_withdrawal_id with
  | None -> Alcotest.fail "edge: withdrawal request reverted"
  | Some wid ->
      Bridge.compromise_validators b ~keys:2;
      Chain.set_time s (Chain.now t + 60);
      let r =
        Bridge.forged_withdrawal b ~attacker:mallory
          ~src_token:m.Bridge.m_src_token ~amount:(U256.of_int 2_000)
          ~withdrawal_id:wid
      in
      if r.Types.r_status <> Types.Success then
        Alcotest.fail "edge: re-signed release reverted");
  Detector.default_input ~label:"edge" ~plugin:Decoder.ronin_plugin ~config
    ~source_chain:s ~target_chain:t ~pricing:(Pricing.create ())

(* One probe rule per program rule: same body, head renamed to a
   reserved predicate, so per-rule firing is observable even when
   several rules share a head. *)
let probe_name i (r : Ast.rule) =
  Printf.sprintf "coverage_probe_%02d_%s" i r.Ast.head.Ast.pred

let probed_program () =
  let probes =
    List.mapi
      (fun i (r : Ast.rule) ->
        { r with Ast.head = { r.Ast.head with Ast.pred = probe_name i r } })
      Rules.all_rules
  in
  { Ast.rules = Rules.all_rules @ probes }

let coverage_scenarios ?(scale = 0.02) () =
  let nomad () =
    let b = Nomad.build ~seed:11 ~scale () in
    Detector.default_input ~label:"nomad" ~plugin:Decoder.nomad_plugin
      ~config:b.Scenario.config
      ~source_chain:b.Scenario.bridge.Bridge.source.Bridge.chain
      ~target_chain:b.Scenario.bridge.Bridge.target.Bridge.chain
      ~pricing:b.Scenario.pricing
  in
  let ronin () =
    let b = Ronin.build ~seed:7 ~scale () in
    {
      (Detector.default_input ~label:"ronin" ~plugin:Decoder.ronin_plugin
         ~config:b.Scenario.config
         ~source_chain:b.Scenario.bridge.Bridge.source.Bridge.chain
         ~target_chain:b.Scenario.bridge.Bridge.target.Bridge.chain
         ~pricing:b.Scenario.pricing)
      with
      Detector.i_first_window_withdrawal_id =
        b.Scenario.first_window_withdrawal_id;
    }
  in
  let generic () = attack_input (Generic.build Generic.default_spec) in
  let pack cls () =
    attack_input (Attacks.build (Attacks.default_spec cls)).Attacks.inj_built
  in
  (* The exit-bridge lanes: the benign lane covers the accounting
     stratum's bookkeeping rules, the five attack classes its violation
     rules, and the undeposited claim the no-deposit outflow clause. *)
  let exit_benign () =
    attack_input (Exit_bridge.build_benign Exit_bridge.default_base)
  in
  let exit_pack cls () =
    attack_input
      (Exit_bridge.build (Exit_bridge.default_spec cls)).Exit_bridge.inj_built
  in
  let exit_undeposited () =
    attack_input (Exit_bridge.build_undeposited_claim Exit_bridge.default_base)
  in
  ("nomad", nomad) :: ("ronin", ronin) :: ("generic", generic)
  :: ("edge", edge_input)
  :: (List.map
        (fun cls -> ("attack-" ^ Attacks.class_slug cls, pack cls))
        Report.attack_classes
     @ ("exit", exit_benign)
       :: ("exit-undeposited", exit_undeposited)
       :: List.map
            (fun cls -> ("exit-" ^ Report.acc_class_slug cls, exit_pack cls))
            Report.acc_classes)

let rule_coverage =
  Alcotest.test_case "every rule fires in some corpus scenario" `Slow
    (fun () ->
      let program = probed_program () in
      let fired = Array.make (List.length Rules.all_rules) false in
      List.iter
        (fun (_, build_input) ->
          let input = build_input () in
          let result =
            Detector.run { input with Detector.i_program = program }
          in
          List.iteri
            (fun i r ->
              if Engine.fact_count result.Detector.db (probe_name i r) > 0
              then fired.(i) <- true)
            Rules.all_rules)
        (coverage_scenarios ());
      let uncovered = ref [] in
      List.iteri
        (fun i (r : Ast.rule) ->
          if not fired.(i) then
            uncovered :=
              Printf.sprintf "%02d:%s" i r.Ast.head.Ast.pred :: !uncovered)
        Rules.all_rules;
      let uncovered = List.rev !uncovered in
      let stale =
        List.filter (fun p -> not (List.mem p uncovered)) coverage_skip_list
      in
      Alcotest.(check (list string))
        "skip-listed rules are still genuinely latent" [] stale;
      let unexpected =
        List.filter (fun p -> not (List.mem p coverage_skip_list)) uncovered
      in
      Alcotest.(check (list string))
        "no rule outside the skip-list is uncovered" [] unexpected)

(* ------------------------------------------------------------------ *)
(* Whole-program oracle: the naive evaluator against the engine         *)

(* Nomad and Ronin shrink to the smallest scale at which each still
   derives every head it derives at the audit's 0.02 (32 and 29 heads;
   at 0.001 Ronin loses one), so the naive run stays a few seconds. *)
let oracle_scale = 0.002

let naive_matches_engine =
  Alcotest.test_case "naive evaluator = engine on every corpus" `Slow
    (fun () ->
      let heads =
        List.sort_uniq compare
          (List.map (fun (r : Ast.rule) -> r.Ast.head.Ast.pred) Rules.all_rules)
      in
      let relations =
        heads @ List.map (fun a -> a.Engine.agg_pred) Rules.aggregates
      in
      let nonempty = Hashtbl.create 64 in
      List.iter
        (fun (name, build_input) ->
          let input = build_input () in
          let result = Detector.run input in
          let edb =
            Config.to_facts input.Detector.i_config
            @ List.concat_map
                (fun (_, rd) -> rd.Decoder.rd_facts)
                result.Detector.decode_results
          in
          let db = Naive.create_db () in
          List.iter
            (fun f ->
              let pred, tuple = Facts.to_tuple f in
              Naive.add_fact db pred tuple)
            edb;
          let derived =
            Naive.run ~aggregates:Rules.aggregates db Rules.program
          in
          List.iter
            (fun p ->
              let engine =
                List.sort compare
                  (List.map Array.to_list (Engine.facts result.Detector.db p))
              in
              if engine <> [] then Hashtbl.replace nonempty p ();
              let naive = Naive.facts db p in
              if naive <> engine then
                Alcotest.failf "%s: %s has %d naive vs %d engine tuples" name p
                  (List.length naive) (List.length engine))
            relations;
          Alcotest.(check int)
            (name ^ ": derived tuples")
            result.Detector.rule_stats.Engine.tuples_derived derived)
        (coverage_scenarios ~scale:oracle_scale ());
      Alcotest.(check (list string))
        "rule heads empty in every corpus"
        [ Rules.r_sc_deposit_event_no_escrow ]
        (List.filter (fun p -> not (Hashtbl.mem nonempty p)) heads))

(* ------------------------------------------------------------------ *)
(* Generic token-cap contract                                           *)

let token_cap_raises =
  Alcotest.test_case "out-of-range g_n_tokens raises instead of clamping"
    `Quick (fun () ->
      let build n =
        ignore
          (Generic.build
             { Generic.default_spec with Generic.g_n_tokens = n })
      in
      let max_n = List.length Scenario.default_tokens in
      List.iter
        (fun n ->
          match build n with
          | () -> Alcotest.failf "g_n_tokens = %d accepted" n
          | exception Invalid_argument _ -> ())
        [ 0; -3; max_n + 1; 99 ];
      (* The boundaries stay valid. *)
      build 1;
      build max_n)

(* ------------------------------------------------------------------ *)

let exactness_cases =
  List.map
    (fun cls ->
      Alcotest.test_case
        (Attacks.class_slug cls ^ ": rule fires on exactly the injected txs")
        `Quick (check_exactness cls))
    Report.attack_classes

let twin_cases =
  List.map
    (fun cls ->
      Alcotest.test_case
        (Attacks.class_slug cls ^ ": benign twin is clean")
        `Quick (check_benign_twin cls))
    Report.attack_classes

let matrix_cases =
  List.map
    (fun cls ->
      Alcotest.test_case
        (Attacks.class_slug cls ^ ": fault/quorum/parallel matrix agrees")
        `Quick (check_matrix cls))
    Report.attack_classes

let () =
  Alcotest.run "attacks"
    [
      ("exactness", exactness_cases);
      ("benign-twin", twin_cases);
      ("matrix", matrix_cases);
      ( "generator",
        [
          QCheck_alcotest.to_alcotest prop_twin_differential;
          QCheck_alcotest.to_alcotest prop_deterministic;
        ] );
      ("coverage", [ rule_coverage ]);
      ("oracle", [ naive_matches_engine ]);
      ("generic-contract", [ token_cap_raises ]);
    ]
