(* Fleet supervision suite (DESIGN.md §13).

   Five axes:
   - bus semantics: cross-bridge collapse records every origin, distinct
     signatures never collapse, and an emission aging past the window
     re-emits instead of silently absorbing;
   - circuit breaker: a persistently failing lane walks the full
     Active -> Degraded -> Parked (doubling terms) -> Probation ->
     Active lifecycle, and parked rounds really skip the lane;
   - fault isolation: in a fleet with one blown lane, every clean
     lane's alert stream is byte-identical to a solo single-lane
     supervisor run of the same spec, and only the blown lane parks;
   - determinism: the whole fleet output (bus stream, per-lane streams,
     health trajectory) is identical at --jobs 1/2/4 and across two
     same-seed runs, both on preset scenario lanes and under qcheck
     over random traffic scripts;
   - poll budget: a budget-limited lane catches up over more rounds
     without ever parking and loses no alerts.

   The golden fleet fixture lives in test_golden-adjacent
   golden/fleet.golden and reuses the existing per-bridge fixtures for
   the rows that overlap (ronin, nomad, attack-forged-proof lanes must
   reproduce them byte for byte). *)

module T = Xcw_testlib
module Chain = Xcw_chain.Chain
module Bridge = Xcw_bridge.Bridge
module Fault = Xcw_rpc.Fault
module Detector = Xcw_core.Detector
module Monitor = Xcw_core.Monitor
module Report = Xcw_core.Report
module Sup = Xcw_fleet.Supervisor
module Bus = Xcw_fleet.Bus
module Presets = Xcw_fleet.Presets

let u = T.u

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let mk_alert ?(rule = "8. CCTX_ValidWithdrawal")
    ?(cls = Report.No_correspondence) ?(tx = "0xaaaa") ?(chain = 2)
    ?(detail = "no correspondence on other chain") ?(at = (5, 5)) () =
  {
    Monitor.al_seq = 0;
    al_rule = rule;
    al_detected_at = at;
    al_anomaly =
      {
        Report.a_class = cls;
        a_tx_hash = tx;
        a_chain_id = chain;
        a_usd_value = 123.0;
        a_detail = detail;
      };
  }

(* Byte-comparable lane stream: dedup signature plus detection cursor. *)
let render_stream alerts =
  String.concat "\n"
    (List.map
       (fun (a : Monitor.alert) ->
         let sb, tb = a.Monitor.al_detected_at in
         Printf.sprintf "%s|(%d,%d)" (Bus.signature a) sb tb)
       alerts)

let render_bus_alert (fa : Bus.fleet_alert) =
  Printf.sprintf "#%d r%d %s %s [%s]" fa.Bus.fa_seq fa.Bus.fa_round
    fa.Bus.fa_bridge
    (Bus.signature fa.Bus.fa_alert)
    (String.concat ", "
       (List.map
          (fun (o : Bus.origin) ->
            Printf.sprintf "%s@r%d" o.Bus.o_bridge o.Bus.o_round)
          fa.Bus.fa_origins))

let state_name = function
  | Sup.Active -> "active"
  | Sup.Degraded -> "degraded"
  | Sup.Parked { until; term } -> Printf.sprintf "parked(%d,%d)" until term
  | Sup.Probation -> "probation"

let lane_report sup i =
  match Sup.lane_monitor sup i with
  | Some mon -> (
      match Monitor.last_report mon with
      | Some r -> r
      | None -> Alcotest.failf "lane %d has no report" i)
  | None -> Alcotest.failf "lane %d never polled" i

(* The complete observable fleet output, for determinism equality. *)
let fleet_signature sup =
  let h = Sup.health sup in
  let lanes =
    List.map
      (fun (lh : Sup.lane_health) ->
        Printf.sprintf "%d %s %s polls=%d alerts=%d trips=%d lag=%d"
          lh.Sup.lh_index lh.Sup.lh_name (state_name lh.Sup.lh_state)
          lh.Sup.lh_polls lh.Sup.lh_alerts lh.Sup.lh_trips lh.Sup.lh_lag)
      h.Sup.fh_lanes
  in
  let bus = List.map render_bus_alert (Sup.alerts sup) in
  let streams =
    List.init (Sup.lane_count sup) (fun i ->
        render_stream (Sup.lane_alerts sup i))
  in
  String.concat "\n"
    ((Printf.sprintf "rounds=%d emitted=%d collapsed=%d" h.Sup.fh_rounds
        h.Sup.fh_emitted h.Sup.fh_collapsed
     :: lanes)
    @ bus @ streams)

(* A lane over a testlib bridge whose traffic is fully applied up
   front: the cursor schedule replays the recorded per-op snapshots one
   per round, then holds at the final heads. *)
let scripted_lane ~name ?(fail_from = max_int) b snapshots =
  let snaps = Array.of_list snapshots in
  let last = Array.length snaps - 1 in
  let cursors round =
    if round >= fail_from then failwith "scripted outage";
    snaps.(min (round - 1) last)
  in
  {
    Sup.l_name = name;
    l_input = T.monitor_input ~label:name b;
    l_cursors = cursors;
  }

(* Build one scripted bridge: seed, apply [ops], record a cursor
   snapshot after every op.  [salt] decorrelates user addresses across
   lanes. *)
let scripted_bridge ~salt ops =
  let b, m = T.make_bridge () in
  let user = T.user_with_tokens b m ("fleet-" ^ salt) (u 1_000_000) in
  T.seed_completed_deposit b m user;
  let snaps =
    List.mapi
      (fun i op ->
        T.apply_op b m user i op;
        T.cur b)
      ops
  in
  (b, snaps @ [ T.cur b ])

(* ------------------------------------------------------------------ *)
(* Alert bus                                                           *)

let bus_collapse =
  Alcotest.test_case "cross-bridge duplicate collapses with both origins"
    `Quick (fun () ->
      let bus = Bus.create ~window:4 () in
      let a = mk_alert () in
      (match Bus.publish bus ~bridge:"ronin" ~round:1 a with
      | `Emitted fa -> Alcotest.(check int) "first seq" 0 fa.Bus.fa_seq
      | `Collapsed _ -> Alcotest.fail "first publish must emit");
      (match Bus.publish bus ~bridge:"nomad" ~round:3 (mk_alert ~at:(9, 9) ())
       with
      | `Collapsed fa ->
          Alcotest.(check (list string))
            "both origins recorded, emitter first" [ "ronin@r1"; "nomad@r3" ]
            (List.map
               (fun (o : Bus.origin) ->
                 Printf.sprintf "%s@r%d" o.Bus.o_bridge o.Bus.o_round)
               fa.Bus.fa_origins)
      | `Emitted _ -> Alcotest.fail "same signature in window must collapse");
      Alcotest.(check int) "one emission" 1 (Bus.emitted bus);
      Alcotest.(check int) "one collapse" 1 (Bus.collapsed bus);
      Alcotest.(check int) "stream holds one alert" 1
        (List.length (Bus.alerts bus)))

let bus_distinct =
  Alcotest.test_case "distinct tx hashes never collapse" `Quick (fun () ->
      let bus = Bus.create ~window:16 () in
      let pub tx =
        Bus.publish bus ~bridge:"ronin" ~round:1 (mk_alert ~tx ())
      in
      (match (pub "0xaaaa", pub "0xbbbb") with
      | `Emitted a, `Emitted b ->
          Alcotest.(check (pair int int)) "dense seqs" (0, 1)
            (a.Bus.fa_seq, b.Bus.fa_seq)
      | _ -> Alcotest.fail "distinct signatures must both emit");
      Alcotest.(check int) "no collapse" 0 (Bus.collapsed bus))

let bus_expiry =
  Alcotest.test_case "window expiry re-emits the same signature" `Quick
    (fun () ->
      let bus = Bus.create ~window:2 () in
      let pub round = Bus.publish bus ~bridge:"b" ~round (mk_alert ()) in
      (match pub 1 with
      | `Emitted _ -> ()
      | `Collapsed _ -> Alcotest.fail "round 1 must emit");
      (match pub 3 with
      | `Collapsed _ -> ()
      | `Emitted _ -> Alcotest.fail "round 3 is inside the round-1 window");
      (* The horizon is anchored at the emission, not the last collapse:
         round 4 is 3 > 2 rounds past round 1. *)
      match pub 4 with
      | `Emitted fa ->
          Alcotest.(check int) "fresh page" 1 fa.Bus.fa_seq;
          Alcotest.(check int) "two emissions" 2 (Bus.emitted bus)
      | `Collapsed _ -> Alcotest.fail "round 4 must re-emit")

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                     *)

let breaker_lifecycle =
  Alcotest.test_case
    "breaker: degrade, park with doubling terms, probation, recovery" `Quick
    (fun () ->
      let b, snaps = scripted_bridge ~salt:"breaker" [ 0; 1; 2 ] in
      let failing = ref false in
      let snaps = Array.of_list snaps in
      let lane =
        {
          Sup.l_name = "flappy";
          l_input = T.monitor_input ~label:"flappy" b;
          l_cursors =
            (fun round ->
              if !failing then failwith "rpc down"
              else snaps.(min (round - 1) (Array.length snaps - 1)));
        }
      in
      let sup =
        Sup.create
          ~breaker:
            { Sup.cb_failure_threshold = 2; cb_base_term = 2; cb_max_term = 8 }
          [ lane ]
      in
      let state () = (List.hd (Sup.health sup).Sup.fh_lanes).Sup.lh_state in
      let polls () = (List.hd (Sup.health sup).Sup.fh_lanes).Sup.lh_polls in
      ignore (Sup.poll sup);
      Alcotest.(check string) "synced lane is active" "active"
        (state_name (state ()));
      failing := true;
      ignore (Sup.poll sup);
      Alcotest.(check string) "first failure degrades" "degraded"
        (state_name (state ()));
      ignore (Sup.poll sup);
      Alcotest.(check string) "threshold parks for the base term"
        "parked(5,2)"
        (state_name (state ()));
      let parked_polls = polls () in
      ignore (Sup.poll sup);
      Alcotest.(check int) "parked rounds skip the lane" parked_polls
        (polls ());
      ignore (Sup.poll sup);
      Alcotest.(check string) "probation failure re-parks at double term"
        "parked(9,4)"
        (state_name (state ()));
      ignore (Sup.run sup ~rounds:3);
      ignore (Sup.poll sup);
      Alcotest.(check string) "second probe re-parks at the term cap"
        "parked(17,8)"
        (state_name (state ()));
      failing := false;
      ignore (Sup.run sup ~rounds:7);
      ignore (Sup.poll sup);
      Alcotest.(check string) "successful probation recovers to active"
        "active"
        (state_name (state ()));
      let lh = List.hd (Sup.health sup).Sup.fh_lanes in
      Alcotest.(check int) "three trips recorded" 3 lh.Sup.lh_trips;
      Alcotest.(check int) "failure counter cleared" 0 lh.Sup.lh_failures)

(* ------------------------------------------------------------------ *)
(* Fault isolation                                                     *)

let isolation_differential =
  Alcotest.test_case
    "one blown lane parks alone; clean lanes byte-identical to solo runs"
    `Quick (fun () ->
      let scripts = [ [ 0; 1; 2; 3 ]; [ 1; 1; 0 ]; [ 2; 0; 3; 1 ] ] in
      let bridges =
        List.mapi
          (fun i ops -> scripted_bridge ~salt:(string_of_int i) ops)
          scripts
      in
      let clean_lanes =
        List.mapi
          (fun i (b, snaps) ->
            scripted_lane ~name:(Printf.sprintf "clean-%d" i) b snaps)
          bridges
      in
      let blown_b, blown_snaps = scripted_bridge ~salt:"blown" [ 0; 1 ] in
      let blown =
        scripted_lane ~name:"blown" ~fail_from:3 blown_b blown_snaps
      in
      let rounds = 8 in
      let fleet = Sup.create (clean_lanes @ [ blown ]) in
      ignore (Sup.run fleet ~rounds);
      List.iteri
        (fun i lane ->
          let solo = Sup.create [ lane ] in
          ignore (Sup.run solo ~rounds);
          Alcotest.(check string)
            (Printf.sprintf "lane %d stream identical to its solo run" i)
            (render_stream (Sup.lane_alerts solo 0))
            (render_stream (Sup.lane_alerts fleet i)))
        clean_lanes;
      let h = Sup.health fleet in
      Alcotest.(check int) "exactly the blown lane is parked" 1
        h.Sup.fh_parked;
      List.iteri
        (fun i (lh : Sup.lane_health) ->
          if i < List.length clean_lanes then begin
            Alcotest.(check string)
              (Printf.sprintf "clean lane %d stays active" i)
              "active"
              (state_name lh.Sup.lh_state);
            match lh.Sup.lh_monitor with
            | Some mh ->
                Alcotest.(check bool)
                  (Printf.sprintf "clean lane %d is synced" i)
                  true mh.Monitor.h_synced
            | None -> Alcotest.fail "clean lane never polled"
          end
          else begin
            (match lh.Sup.lh_state with
            | Sup.Parked _ -> ()
            | s ->
                Alcotest.failf "blown lane should be parked, is %s"
                  (state_name s));
            Alcotest.(check bool) "blown lane recorded its error" true
              (lh.Sup.lh_last_error <> None)
          end)
        h.Sup.fh_lanes)

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)

let preset_lanes () =
  [
    Presets.lane ~seed:5 ~rounds_to_sync:3
      (Presets.Generic_kind Xcw_workload.Generic.default_spec);
    Presets.lane ~rounds_to_sync:3 ~name:"attack-a"
      (Presets.Attack Report.Forged_proof);
    (* Mirror of the attack lane: same scenario, different name — its
       alerts collapse on the bus, exercising dedup under every jobs
       setting. *)
    Presets.lane ~rounds_to_sync:3 ~name:"attack-b"
      (Presets.Attack Report.Forged_proof);
    (* Two of three endpoints lie: past the f < k Byzantine threshold
       the quorum cannot protect this lane (agreeing lies outvote the
       honest node), but the damage must stay inside its own stream. *)
    Presets.lane ~seed:9 ~rounds_to_sync:3 ~name:"generic-byzantine"
      ~tweak:(fun input ->
        let efs = [ None; Some Fault.byzantine; Some Fault.byzantine ] in
        {
          input with
          Detector.i_rpc_seed = 101;
          i_endpoints = 3;
          i_quorum = 2;
          i_source_endpoint_faults = efs;
          i_target_endpoint_faults = efs;
        })
      (Presets.Generic_kind Xcw_workload.Generic.default_spec);
    Presets.lane ~scale:0.004 ~rounds_to_sync:3 ~name:"nomad-moderate"
      ~tweak:(fun input ->
        {
          input with
          Detector.i_rpc_seed = 202;
          i_source_fault = Some Fault.moderate;
          i_target_fault = Some Fault.moderate;
        })
      Presets.Nomad;
  ]

let determinism_jobs =
  Alcotest.test_case
    "fleet output identical at --jobs 1/2/4 and across same-seed runs"
    `Quick (fun () ->
      let run ~ndomains =
        let sup = Sup.create ~ndomains (preset_lanes ()) in
        ignore (Sup.run sup ~rounds:5);
        (fleet_signature sup, sup)
      in
      let s1, sup = run ~ndomains:1 in
      Alcotest.(check string) "jobs 2 = jobs 1" s1 (fst (run ~ndomains:2));
      Alcotest.(check string) "jobs 4 = jobs 1" s1 (fst (run ~ndomains:4));
      Alcotest.(check string) "same-seed rerun identical" s1
        (fst (run ~ndomains:1));
      (* The mirrored attack lane really collapsed on the bus. *)
      Alcotest.(check bool) "mirror lane collapsed on the bus" true
        ((Sup.health sup).Sup.fh_collapsed > 0);
      (* Isolation: every lane, faulted and lied-to ones included,
         streams exactly what a single-lane supervisor of it streams. *)
      List.iteri
        (fun i lane ->
          let solo = Sup.create [ lane ] in
          ignore (Sup.run solo ~rounds:5);
          Alcotest.(check string)
            (Printf.sprintf "lane %s = its solo run" lane.Sup.l_name)
            (render_stream (Sup.lane_alerts solo 0))
            (render_stream (Sup.lane_alerts sup i)))
        (preset_lanes ()))

let prop_determinism =
  QCheck.Test.make ~count:(T.qcount 10)
    ~name:"random traffic: fleet output identical at jobs 1 vs 2"
    (QCheck.pair (T.arb_ops ~max_len:4) (T.arb_ops ~max_len:4))
    (fun (ops_a, ops_b) ->
      let lanes () =
        List.mapi
          (fun i (salt, ops) ->
            let b, snaps = scripted_bridge ~salt ops in
            scripted_lane ~name:(Printf.sprintf "lane-%d" i) b snaps)
          [ ("pa", ops_a); ("pb", ops_b) ]
      in
      let run ~ndomains lanes =
        let sup = Sup.create ~ndomains lanes in
        ignore (Sup.run sup ~rounds:6);
        fleet_signature sup
      in
      (* Two independent builds of the same scripts must agree, at any
         worker count.  (Chains are mutable, so each run gets a fresh
         build; determinism of the build itself is part of the claim.) *)
      run ~ndomains:1 (lanes ()) = run ~ndomains:2 (lanes ()))

(* ------------------------------------------------------------------ *)
(* Poll budget                                                         *)

let budget_catchup =
  Alcotest.test_case
    "budgeted lane catches up without parking and loses no alerts" `Quick
    (fun () ->
      let b, _ = scripted_bridge ~salt:"budget" [ 0; 1; 2; 3; 0; 1; 2; 3 ] in
      (* The schedule demands the full heads from round 1; the budget
         makes the lane earn them a few blocks per poll. *)
      let heads_lane name =
        {
          Sup.l_name = name;
          l_input = T.monitor_input ~label:name b;
          l_cursors = (fun _ -> T.cur b);
        }
      in
      let sb, tb = T.cur b in
      let budget = 4 in
      let rounds = ((max sb tb + budget - 1) / budget) + 2 in
      let budgeted = Sup.create ~poll_budget:budget [ heads_lane "slow" ] in
      ignore (Sup.run budgeted ~rounds);
      let free = Sup.create [ heads_lane "fast" ] in
      ignore (Sup.run free ~rounds);
      let lh = List.hd (Sup.health budgeted).Sup.fh_lanes in
      Alcotest.(check string) "budgeted lane ends active" "active"
        (state_name lh.Sup.lh_state);
      Alcotest.(check int) "no trips while catching up" 0 lh.Sup.lh_trips;
      Alcotest.(check bool) "budgeted lane finished synced" true
        (match lh.Sup.lh_monitor with
        | Some mh -> mh.Monitor.h_synced
        | None -> false);
      (* The budgeted replay may cut inside an op's block span, alerting
         a transient (later-matched) anomaly the full-jump run never
         surfaces — so the streams are superset-ordered, and the final
         reports (where such transients are retracted) are identical. *)
      let keys sup = T.alert_keys (Sup.lane_alerts sup 0) in
      let free_keys = keys free and budgeted_keys = keys budgeted in
      Alcotest.(check bool)
        "unbudgeted alert keys are a subset of the budgeted ones" true
        (List.for_all (fun k -> List.mem k budgeted_keys) free_keys);
      Alcotest.(check bool) "final reports identical" true
        (T.report_signature (lane_report budgeted 0)
        = T.report_signature (lane_report free 0)))

(* ------------------------------------------------------------------ *)
(* Golden 4-bridge fleet                                               *)

(* ronin/nomad at the fixture seeds and scale, plus the default generic
   and forged-proof pack — the same inputs test_golden pins, driven
   through the fleet instead of the batch detector. *)
let golden_fleet () =
  let lanes =
    [
      Presets.lane ~seed:7 ~scale:0.02 ~rounds_to_sync:6 Presets.Ronin;
      Presets.lane ~seed:11 ~scale:0.02 ~rounds_to_sync:6 Presets.Nomad;
      Presets.lane ~rounds_to_sync:6
        (Presets.Generic_kind Xcw_workload.Generic.default_spec);
      Presets.lane ~rounds_to_sync:6 (Presets.Attack Report.Forged_proof);
    ]
  in
  let sup = Sup.create lanes in
  ignore (Sup.run sup ~rounds:8);
  sup

let golden_reuse =
  Alcotest.test_case
    "fleet lanes reproduce the existing per-bridge fixtures" `Quick
    (fun () ->
      match Sys.getenv_opt "XCW_GOLDEN_WRITE" with
      | Some _ ->
          (* Fixtures are written by the batch golden suite only. *)
          print_endline "skipping fixture reuse in write mode"
      | None ->
          let sup = golden_fleet () in
          let check_fixture i ~render ~fixture =
            let expected = T.read_file (Filename.concat "golden" fixture) in
            let got = render (lane_report sup i) in
            if expected <> got then
              Alcotest.failf "lane %d drifted from %s at %s" i fixture
                (T.first_diff expected got)
          in
          check_fixture 0 ~render:T.render_report ~fixture:"ronin.golden";
          check_fixture 1 ~render:T.render_report ~fixture:"nomad.golden";
          check_fixture 3 ~render:T.render_attack_report
            ~fixture:"attack_forged-proof.golden")

let golden_fleet_fixture =
  Alcotest.test_case "fleet stream and health match golden/fleet.golden"
    `Quick (fun () ->
      let sup = golden_fleet () in
      let h = Sup.health sup in
      let buf = Buffer.create 4096 in
      Printf.bprintf buf "fleet: %d lanes, %d rounds\n" (Sup.lane_count sup)
        h.Sup.fh_rounds;
      List.iter
        (fun (lh : Sup.lane_health) ->
          Printf.bprintf buf "lane %d %s %s polls=%d alerts=%d\n"
            lh.Sup.lh_index lh.Sup.lh_name
            (state_name lh.Sup.lh_state)
            lh.Sup.lh_polls lh.Sup.lh_alerts)
        h.Sup.fh_lanes;
      Printf.bprintf buf "bus: emitted=%d collapsed=%d\n" h.Sup.fh_emitted
        h.Sup.fh_collapsed;
      List.iter
        (fun fa -> Printf.bprintf buf "%s\n" (render_bus_alert fa))
        (Sup.alerts sup);
      Buffer.add_string buf (T.render_report (lane_report sup 2));
      let rendered = Buffer.contents buf in
      match Sys.getenv_opt "XCW_GOLDEN_WRITE" with
      | Some dir ->
          let path = Filename.concat dir "fleet.golden" in
          let oc = open_out_bin path in
          output_string oc rendered;
          close_out oc;
          Printf.printf "wrote %s\n%!" path
      | None ->
          let path = Filename.concat "golden" "fleet.golden" in
          if not (Sys.file_exists path) then
            Alcotest.failf
              "missing fixture %s (regenerate with XCW_GOLDEN_WRITE)" path
          else
            let expected = T.read_file path in
            if expected <> rendered then
              Alcotest.failf "fleet output drifted from %s at %s" path
                (T.first_diff expected rendered))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fleet"
    [
      ("bus", [ bus_collapse; bus_distinct; bus_expiry ]);
      ("breaker", [ breaker_lifecycle ]);
      ("isolation", [ isolation_differential ]);
      ( "determinism",
        [ determinism_jobs; QCheck_alcotest.to_alcotest prop_determinism ] );
      ("budget", [ budget_catchup ]);
      ("golden", [ golden_reuse; golden_fleet_fixture ]);
    ]
