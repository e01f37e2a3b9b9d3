(* Unit tests for the cross-chain rules over hand-constructed fact
   bases — each rule exercised with a minimal accepting example plus
   the specific violation it must reject. *)

open Xcw_datalog.Ast
module Engine = Xcw_datalog.Engine
module Rules = Xcw_core.Rules
module Facts = Xcw_core.Facts

let bridge_s = "0xbbbb000000000000000000000000000000000001"
let zero = Rules.zero_addr
let weth_s = "0xeeee000000000000000000000000000000000001"
let token_s = "0xaaaa000000000000000000000000000000000001"
let token_t = "0xaaaa000000000000000000000000000000000002"
let user = "0x1111000000000000000000000000000000000001"
let ben = "0x2222000000000000000000000000000000000002"

(* Static config facts shared by all cases: chain 1 = S, chain 2 = T. *)
let static_facts =
  [
    ("bridge_controlled_address", [ Int 1; Str bridge_s ]);
    ("bridge_controlled_address", [ Int 2; Str "0xbbbb000000000000000000000000000000000002" ]);
    ("bridge_controlled_address", [ Int 2; Str zero ]);
    ("token_mapping", [ Int 1; Int 2; Str token_s; Str token_t ]);
    ("token_mapping", [ Int 1; Int 2; Str weth_s; Str token_t ]);
    ("cctx_finality", [ Int 1; Int 100 ]);
    ("cctx_finality", [ Int 2; Int 50 ]);
    ("wrapped_native_token", [ Int 1; Str weth_s ]);
    ("wrapped_native_token", [ Int 2; Str "0xeeee000000000000000000000000000000000002" ]);
  ]

let run facts =
  let db = Engine.create_db () in
  List.iter (fun (p, t) -> Engine.add_fact db p t) (static_facts @ facts);
  ignore (Engine.run db Rules.program);
  db

let count db pred = Engine.fact_count db pred

(* Minimal valid ERC-20 deposit on S: escrow transfer at index 0,
   bridge event at index 1, non-reverting zero-value tx. *)
let sc_deposit_facts ?(tx = "0xd1") ?(ts = 1000) ?(bidx = 1) ?(tidx = 0)
    ?(status = 1) ?(value = "0") ?(did = 7) ?(amt = "500") ?(benef = ben) () =
  [
    ("sc_token_deposited",
     [ Str tx; Int bidx; Int did; Str benef; Str token_t; Str token_s; Int 2; Str amt ]);
    ("erc20_transfer", [ Str tx; Int 1; Int tidx; Str token_s; Str user; Str bridge_s; Str amt ]);
    ("transaction", [ Int ts; Int 1; Str tx; Str user; Str bridge_s; Str value; Int status; Str "0" ]);
  ]

(* Matching completion on T: mint to beneficiary + bridge event. *)
let tc_deposit_facts ?(tx = "0xd2") ?(ts = 1200) ?(did = 7) ?(amt = "500")
    ?(benef = ben) () =
  [
    ("tc_token_deposited", [ Str tx; Int 1; Int did; Str benef; Str token_t; Str amt ]);
    ("erc20_transfer", [ Str tx; Int 2; Int 0; Str token_t; Str zero; Str benef; Str amt ]);
    ("transaction",
     [ Int ts; Int 2; Str tx; Str "0xre1a000000000000000000000000000000000001";
       Str "0xbbbb000000000000000000000000000000000002"; Str "0"; Int 1; Str "0" ]);
  ]

(* ------------------------------------------------------------------ *)

let rule2_accepts_valid =
  Alcotest.test_case "rule 2 accepts a valid ERC-20 deposit" `Quick (fun () ->
      let db = run (sc_deposit_facts ()) in
      Alcotest.(check int) "captured" 1 (count db Rules.r_sc_valid_erc20_deposit))

let rule2_rejects_reverted =
  Alcotest.test_case "rule 2 rejects reverted transactions" `Quick (fun () ->
      let db = run (sc_deposit_facts ~status:0 ()) in
      Alcotest.(check int) "not captured" 0 (count db Rules.r_sc_valid_erc20_deposit))

let rule2_rejects_bad_ordering =
  Alcotest.test_case "rule 2 rejects bridge event before token event" `Quick
    (fun () ->
      let db = run (sc_deposit_facts ~bidx:0 ~tidx:1 ()) in
      Alcotest.(check int) "not captured" 0 (count db Rules.r_sc_valid_erc20_deposit))

let rule2_rejects_unmapped_token =
  Alcotest.test_case "rule 2 rejects deposits of unmapped tokens" `Quick
    (fun () ->
      let rogue = "0xcccc000000000000000000000000000000000001" in
      let facts =
        [
          ("sc_token_deposited",
           [ Str "0xd9"; Int 1; Int 7; Str ben; Str token_t; Str rogue; Int 2; Str "500" ]);
          ("erc20_transfer",
           [ Str "0xd9"; Int 1; Int 0; Str rogue; Str user; Str bridge_s; Str "500" ]);
          ("transaction",
           [ Int 1000; Int 1; Str "0xd9"; Str user; Str bridge_s; Str "0"; Int 1; Str "0" ]);
        ]
      in
      let db = run facts in
      Alcotest.(check int) "not captured" 0 (count db Rules.r_sc_valid_erc20_deposit))

let rule2_rejects_amount_mismatch =
  Alcotest.test_case "rule 2 rejects mismatched escrow amounts" `Quick
    (fun () ->
      let facts =
        [
          ("sc_token_deposited",
           [ Str "0xda"; Int 1; Int 7; Str ben; Str token_t; Str token_s; Int 2; Str "500" ]);
          ("erc20_transfer",
           [ Str "0xda"; Int 1; Int 0; Str token_s; Str user; Str bridge_s; Str "499" ]);
          ("transaction",
           [ Int 1000; Int 1; Str "0xda"; Str user; Str bridge_s; Str "0"; Int 1; Str "0" ]);
        ]
      in
      let db = run facts in
      Alcotest.(check int) "not captured" 0 (count db Rules.r_sc_valid_erc20_deposit))

let rule1_accepts_native =
  Alcotest.test_case "rule 1 accepts a valid native deposit" `Quick (fun () ->
      let facts =
        [
          ("sc_token_deposited",
           [ Str "0xn1"; Int 1; Int 3; Str ben; Str token_t; Str weth_s; Int 2; Str "42" ]);
          ("native_deposit", [ Str "0xn1"; Int 1; Int 0; Str user; Str bridge_s; Str "42" ]);
          ("transaction",
           [ Int 1000; Int 1; Str "0xn1"; Str user; Str bridge_s; Str "42"; Int 1; Str "0" ]);
        ]
      in
      let db = run facts in
      Alcotest.(check int) "captured" 1 (count db Rules.r_sc_valid_native_deposit))

let rule1_rejects_wrong_tx_value =
  Alcotest.test_case "rule 1 requires tx.value to equal the amount" `Quick
    (fun () ->
      let facts =
        [
          ("sc_token_deposited",
           [ Str "0xn2"; Int 1; Int 3; Str ben; Str token_t; Str weth_s; Int 2; Str "42" ]);
          ("native_deposit", [ Str "0xn2"; Int 1; Int 0; Str user; Str bridge_s; Str "42" ]);
          ("transaction",
           [ Int 1000; Int 1; Str "0xn2"; Str user; Str bridge_s; Str "41"; Int 1; Str "0" ]);
        ]
      in
      let db = run facts in
      Alcotest.(check int) "not captured" 0 (count db Rules.r_sc_valid_native_deposit))

let rule1_rejects_non_wrapped_token =
  Alcotest.test_case "rule 1 requires the wrapped-native token" `Quick
    (fun () ->
      let facts =
        [
          ("sc_token_deposited",
           [ Str "0xn3"; Int 1; Int 3; Str ben; Str token_t; Str token_s; Int 2; Str "42" ]);
          ("native_deposit", [ Str "0xn3"; Int 1; Int 0; Str user; Str bridge_s; Str "42" ]);
          ("transaction",
           [ Int 1000; Int 1; Str "0xn3"; Str user; Str bridge_s; Str "42"; Int 1; Str "0" ]);
        ]
      in
      let db = run facts in
      Alcotest.(check int) "not captured" 0 (count db Rules.r_sc_valid_native_deposit))

let rule3_accepts_mint =
  Alcotest.test_case "rule 3 accepts a mint-model completion on T" `Quick
    (fun () ->
      let db = run (tc_deposit_facts ()) in
      Alcotest.(check int) "captured" 1 (count db Rules.r_tc_valid_erc20_deposit))

let rule3_rejects_tx_not_to_bridge =
  Alcotest.test_case "rule 3 requires the relay tx to target the bridge"
    `Quick (fun () ->
      let facts =
        [
          ("tc_token_deposited", [ Str "0xd3"; Int 1; Int 7; Str ben; Str token_t; Str "500" ]);
          ("erc20_transfer", [ Str "0xd3"; Int 2; Int 0; Str token_t; Str zero; Str ben; Str "500" ]);
          ("transaction",
           [ Int 1200; Int 2; Str "0xd3"; Str user; Str user; Str "0"; Int 1; Str "0" ]);
        ]
      in
      let db = run facts in
      Alcotest.(check int) "not captured" 0 (count db Rules.r_tc_valid_erc20_deposit))

let rule4_links_matching_pair =
  Alcotest.test_case "rule 4 links matching S and T deposits" `Quick
    (fun () ->
      let db = run (sc_deposit_facts ~ts:1000 () @ tc_deposit_facts ~ts:1100 ()) in
      Alcotest.(check int) "one cctx" 1 (count db Rules.r_cctx_valid_deposit);
      Alcotest.(check int) "no unmatched" 0
        (count db Rules.r_unmatched_sc_erc20_deposit
        + count db Rules.r_unmatched_tc_deposit))

let rule4_enforces_finality =
  Alcotest.test_case "rule 4 rejects sub-finality completions" `Quick
    (fun () ->
      (* finality(S) = 100; completion 99 s after the deposit. *)
      let db = run (sc_deposit_facts ~ts:1000 () @ tc_deposit_facts ~ts:1099 ()) in
      Alcotest.(check int) "no cctx" 0 (count db Rules.r_cctx_valid_deposit);
      Alcotest.(check int) "finality violation witnessed" 1
        (count db Rules.r_deposit_finality_violation);
      Alcotest.(check int) "both sides unmatched" 2
        (count db Rules.r_unmatched_sc_erc20_deposit
        + count db Rules.r_unmatched_tc_deposit))

let rule4_enforces_causality =
  Alcotest.test_case "rule 4 rejects completions before the deposit" `Quick
    (fun () ->
      let db = run (sc_deposit_facts ~ts:1000 () @ tc_deposit_facts ~ts:900 ()) in
      Alcotest.(check int) "no cctx" 0 (count db Rules.r_cctx_valid_deposit);
      (* Not even a finality violation: T happened first, so the pair
         is inconsistent, not fast. *)
      Alcotest.(check int) "no finality witness" 0
        (count db Rules.r_deposit_finality_violation))

let rule4_requires_matching_ids =
  Alcotest.test_case "rule 4 requires matching deposit ids" `Quick (fun () ->
      let db =
        run (sc_deposit_facts ~did:7 ~ts:1000 () @ tc_deposit_facts ~did:8 ~ts:1200 ())
      in
      Alcotest.(check int) "no cctx" 0 (count db Rules.r_cctx_valid_deposit))

let rule4_detects_beneficiary_mismatch =
  Alcotest.test_case "beneficiary mismatch witnessed for rule 4" `Quick
    (fun () ->
      let other = "0x3333000000000000000000000000000000000003" in
      let db =
        run (sc_deposit_facts ~benef:ben ~ts:1000 () @ tc_deposit_facts ~benef:other ~ts:1200 ())
      in
      Alcotest.(check int) "no cctx" 0 (count db Rules.r_cctx_valid_deposit);
      Alcotest.(check int) "mismatch witnessed" 1
        (count db Rules.r_deposit_beneficiary_mismatch))

(* Withdrawal-side fixtures. *)
let tc_withdrawal_facts ?(tx = "0xw1") ?(ts = 2000) ?(wid = 3) ?(amt = "250")
    ?(benef = ben) () =
  [
    ("tc_token_withdrew",
     [ Str tx; Int 1; Int wid; Str benef; Str token_s; Str token_t; Int 1; Str amt ]);
    ("erc20_transfer",
     [ Str tx; Int 2; Int 0; Str token_t; Str user;
       Str "0xbbbb000000000000000000000000000000000002"; Str amt ]);
    ("transaction",
     [ Int ts; Int 2; Str tx; Str user;
       Str "0xbbbb000000000000000000000000000000000002"; Str "0"; Int 1; Str "0" ]);
  ]

let sc_withdrawal_facts ?(tx = "0xw2") ?(ts = 2100) ?(wid = 3) ?(amt = "250")
    ?(benef = ben) () =
  [
    ("sc_token_withdrew", [ Str tx; Int 1; Int wid; Str benef; Str token_s; Str amt ]);
    ("erc20_transfer", [ Str tx; Int 1; Int 0; Str token_s; Str bridge_s; Str benef; Str amt ]);
    ("transaction", [ Int ts; Int 1; Str tx; Str benef; Str bridge_s; Str "0"; Int 1; Str "0" ]);
  ]

let rule6_and_7_accept =
  Alcotest.test_case "rules 6 and 7 accept valid withdrawals" `Quick
    (fun () ->
      let db = run (tc_withdrawal_facts () @ sc_withdrawal_facts ()) in
      Alcotest.(check int) "rule 6" 1 (count db Rules.r_tc_valid_erc20_withdrawal);
      Alcotest.(check int) "rule 7" 1 (count db Rules.r_sc_valid_erc20_withdrawal))

let rule8_links_withdrawal =
  Alcotest.test_case "rule 8 links matching withdrawals across chains" `Quick
    (fun () ->
      (* finality(T) = 50; execution 100 s later. *)
      let db = run (tc_withdrawal_facts ~ts:2000 () @ sc_withdrawal_facts ~ts:2100 ()) in
      Alcotest.(check int) "one cctx" 1 (count db Rules.r_cctx_valid_withdrawal))

let rule8_finality_violation =
  Alcotest.test_case "rule 8 flags sub-finality executions" `Quick (fun () ->
      let db = run (tc_withdrawal_facts ~ts:2000 () @ sc_withdrawal_facts ~ts:2011 ()) in
      Alcotest.(check int) "no cctx" 0 (count db Rules.r_cctx_valid_withdrawal);
      Alcotest.(check int) "witnessed" 1 (count db Rules.r_withdrawal_finality_violation))

let rule8_forged_withdrawal_unmatched =
  Alcotest.test_case "a forged S withdrawal has no T correspondence" `Quick
    (fun () ->
      let db = run (sc_withdrawal_facts ~wid:99 ()) in
      Alcotest.(check int) "rule 7 captured" 1 (count db Rules.r_sc_valid_erc20_withdrawal);
      Alcotest.(check int) "unmatched on S" 1 (count db Rules.r_unmatched_sc_withdrawal);
      Alcotest.(check int) "no cctx" 0 (count db Rules.r_cctx_valid_withdrawal))

let transfer_without_event_flagged =
  Alcotest.test_case "transfer to the bridge without events is flagged"
    `Quick (fun () ->
      let facts =
        [
          ("erc20_transfer",
           [ Str "0xt1"; Int 1; Int 0; Str token_s; Str user; Str bridge_s; Str "77" ]);
          ("transaction",
           [ Int 1000; Int 1; Str "0xt1"; Str user; Str token_s; Str "0"; Int 1; Str "0" ]);
        ]
      in
      let db = run facts in
      Alcotest.(check int) "flagged" 1 (count db Rules.r_transfer_to_bridge_no_event))

let transfer_with_event_not_flagged =
  Alcotest.test_case "escrow transfers inside deposits are not flagged"
    `Quick (fun () ->
      let db = run (sc_deposit_facts ()) in
      Alcotest.(check int) "not flagged" 0 (count db Rules.r_transfer_to_bridge_no_event))

let mint_to_bridge_not_flagged =
  Alcotest.test_case "mints into the bridge (liquidity) are not flagged"
    `Quick (fun () ->
      let facts =
        [
          ("erc20_transfer",
           [ Str "0xt2"; Int 1; Int 0; Str token_s; Str zero; Str bridge_s; Str "1000000" ]);
          ("transaction",
           [ Int 1000; Int 1; Str "0xt2"; Str user; Str token_s; Str "0"; Int 1; Str "0" ]);
        ]
      in
      let db = run facts in
      Alcotest.(check int) "not flagged" 0 (count db Rules.r_transfer_to_bridge_no_event))

let event_without_escrow_flagged =
  Alcotest.test_case "bridge deposit event without escrow is flagged" `Quick
    (fun () ->
      let facts =
        [
          ("sc_token_deposited",
           [ Str "0xe1"; Int 0; Int 7; Str ben; Str token_t; Str token_s; Int 2; Str "500" ]);
          ("transaction",
           [ Int 1000; Int 1; Str "0xe1"; Str user; Str bridge_s; Str "0"; Int 1; Str "0" ]);
        ]
      in
      let db = run facts in
      Alcotest.(check int) "flagged" 1 (count db Rules.r_sc_deposit_event_no_escrow))

let tc_withdraw_no_escrow_flagged =
  Alcotest.test_case "TokenWithdrew without token movement is flagged" `Quick
    (fun () ->
      let facts =
        [
          ("tc_token_withdrew",
           [ Str "0xe2"; Int 0; Int 5; Str ben; Str token_s; Str token_t; Int 1; Str "10" ]);
          ("transaction",
           [ Int 1000; Int 2; Str "0xe2"; Str user;
             Str "0xbbbb000000000000000000000000000000000002"; Str "0"; Int 1; Str "0" ]);
        ]
      in
      let db = run facts in
      Alcotest.(check int) "flagged" 1 (count db Rules.r_tc_withdraw_event_no_escrow))

let mapping_violations_flagged =
  Alcotest.test_case "deposits/withdrawals outside the mapping are flagged"
    `Quick (fun () ->
      let rogue = "0xcccc000000000000000000000000000000000009" in
      let facts =
        [
          ("tc_token_deposited", [ Str "0xm1"; Int 1; Int 7; Str ben; Str rogue; Str "10" ]);
          ("sc_token_withdrew", [ Str "0xm2"; Int 1; Int 9; Str ben; Str rogue; Str "10" ]);
        ]
      in
      let db = run facts in
      Alcotest.(check int) "deposit violation" 1 (count db Rules.r_deposit_mapping_violation);
      Alcotest.(check int) "withdrawal violation" 1 (count db Rules.r_withdrawal_mapping_violation))

let reverted_bridge_interactions_flagged =
  Alcotest.test_case "reverted bridge calls are captured" `Quick (fun () ->
      let facts =
        [
          ("transaction",
           [ Int 1000; Int 1; Str "0xr1"; Str user; Str bridge_s; Str "0"; Int 0; Str "0" ]);
          ("transaction",
           [ Int 1000; Int 1; Str "0xr2"; Str user; Str user; Str "0"; Int 0; Str "0" ]);
        ]
      in
      let db = run facts in
      Alcotest.(check int) "only the bridge-targeting revert" 1
        (count db Rules.r_reverted_bridge_interaction))

(* Property: any valid sc+tc pair with consistent parameters and
   adequate delay is always linked by rule 4 (completeness on the happy
   path). *)
let prop_rule4_complete =
  QCheck.Test.make ~name:"rule 4 links every adequately-delayed pair"
    ~count:100
    QCheck.(triple (int_range 1 1_000_000) (int_range 100 10_000) (int_range 0 50))
    (fun (amt, delay, did) ->
      let amt = string_of_int amt in
      let db =
        run
          (sc_deposit_facts ~did ~amt ~ts:5000 ()
          @ tc_deposit_facts ~did ~amt ~ts:(5000 + delay) ())
      in
      count db Rules.r_cctx_valid_deposit = 1)

(* Every relation name [Rules] exports must name something the program
   derives, so renaming a relation in the .dl fails here, with its
   name, instead of silently emptying a report section. *)
let exported_names_are_derived =
  Alcotest.test_case "every exported relation name is derived" `Quick
    (fun () ->
      let derived =
        List.map (fun r -> r.head.pred) Rules.all_rules
        @ List.map (fun a -> a.Engine.agg_pred) Rules.aggregates
      in
      List.iter
        (fun name ->
          if not (List.mem name derived) then
            Alcotest.failf "Rules exports %S, which no rule or aggregate derives"
              name)
        Rules.
          [
            r_sc_valid_native_deposit; r_sc_valid_erc20_deposit;
            r_tc_valid_erc20_deposit; r_cctx_valid_deposit;
            r_tc_valid_native_withdrawal; r_tc_valid_erc20_withdrawal;
            r_sc_valid_erc20_withdrawal; r_cctx_valid_withdrawal;
            r_transfer_to_bridge_no_event; r_transfer_from_bridge_no_event;
            r_sc_deposit_event_no_escrow; r_tc_withdraw_event_no_escrow;
            r_unmatched_sc_native_deposit; r_unmatched_sc_erc20_deposit;
            r_unmatched_tc_deposit; r_unmatched_tc_native_withdrawal;
            r_unmatched_tc_erc20_withdrawal; r_unmatched_sc_withdrawal;
            r_deposit_finality_violation; r_withdrawal_finality_violation;
            r_deposit_mapping_violation; r_withdrawal_mapping_violation;
            r_deposit_beneficiary_mismatch; r_withdrawal_beneficiary_mismatch;
            r_reverted_bridge_interaction; r_forged_proof_withdrawal;
            r_validator_takeover_withdrawal; r_unauthorized_mint;
            r_inconsistent_deposit_event; r_exit_deposit_total;
            r_exit_claim_total; r_acc_outflow_violation; r_acc_outflow_tx;
            r_acc_forged_exit_proof; r_acc_stale_root_claim;
            r_acc_root_divergence; r_acc_slashing_evasion;
          ])

let () =
  Alcotest.run "rules"
    [
      ( "deposits",
        [
          rule2_accepts_valid;
          rule2_rejects_reverted;
          rule2_rejects_bad_ordering;
          rule2_rejects_unmapped_token;
          rule2_rejects_amount_mismatch;
          rule1_accepts_native;
          rule1_rejects_wrong_tx_value;
          rule1_rejects_non_wrapped_token;
          rule3_accepts_mint;
          rule3_rejects_tx_not_to_bridge;
          rule4_links_matching_pair;
          rule4_enforces_finality;
          rule4_enforces_causality;
          rule4_requires_matching_ids;
          rule4_detects_beneficiary_mismatch;
        ] );
      ( "withdrawals",
        [
          rule6_and_7_accept;
          rule8_links_withdrawal;
          rule8_finality_violation;
          rule8_forged_withdrawal_unmatched;
        ] );
      ( "auxiliary",
        [
          transfer_without_event_flagged;
          transfer_with_event_not_flagged;
          mint_to_bridge_not_flagged;
          event_without_escrow_flagged;
          tc_withdraw_no_escrow_flagged;
          mapping_violations_flagged;
          reverted_bridge_interactions_flagged;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_rule4_complete ]);
      ("names", [ exported_names_are_derived ]);
    ]
