(* Chain simulator tests: native transfers, ERC-20 semantics, WETH
   wrap/unwrap, revert rollback, receipts/logs/traces, and conservation
   properties. *)

module U256 = Xcw_uint256.Uint256
module Address = Xcw_evm.Address
module Types = Xcw_evm.Types
module Chain = Xcw_chain.Chain
module Erc20 = Xcw_chain.Erc20
module Weth = Xcw_chain.Weth

let u = U256.of_int

let fresh_chain () =
  Chain.create ~chain_id:1 ~name:"testnet" ~finality_seconds:64
    ~genesis_time:1_640_995_200

let alice = Address.of_seed "alice"
let bob = Address.of_seed "bob"
let deployer = Address.of_seed "deployer"

let uint256 = Alcotest.testable U256.pp U256.equal

(* ------------------------------------------------------------------ *)
(* Native transfers                                                    *)

let native_transfer =
  Alcotest.test_case "native value transfer moves balances" `Quick (fun () ->
      let c = fresh_chain () in
      Chain.fund c alice (u 1000);
      let r = Chain.submit_tx c ~from_:alice ~to_:bob ~value:(u 400) () in
      Alcotest.(check bool) "success" true (r.Types.r_status = Types.Success);
      Alcotest.(check uint256) "alice" (u 600) (Chain.native_balance c alice);
      Alcotest.(check uint256) "bob" (u 400) (Chain.native_balance c bob))

let native_insufficient =
  Alcotest.test_case "insufficient balance reverts and rolls back" `Quick
    (fun () ->
      let c = fresh_chain () in
      Chain.fund c alice (u 100);
      let r = Chain.submit_tx c ~from_:alice ~to_:bob ~value:(u 400) () in
      Alcotest.(check bool) "reverted" true (r.Types.r_status = Types.Reverted);
      Alcotest.(check uint256) "alice keeps funds" (u 100) (Chain.native_balance c alice);
      Alcotest.(check uint256) "bob got nothing" U256.zero (Chain.native_balance c bob))

let clock_monotonic =
  Alcotest.test_case "clock is monotonic" `Quick (fun () ->
      let c = fresh_chain () in
      Chain.advance_time c 100;
      Alcotest.(check int) "advanced" 1_640_995_300 (Chain.now c);
      Alcotest.check_raises "no going back"
        (Invalid_argument
           "Chain.set_time: clock must be monotonic (1640995200 < 1640995300)")
        (fun () -> Chain.set_time c 1_640_995_200))

let blocks_and_receipts =
  Alcotest.test_case "each tx mines a block with its timestamp" `Quick
    (fun () ->
      let c = fresh_chain () in
      Chain.fund c alice (u 10);
      Chain.advance_time c 60;
      let r1 = Chain.submit_tx c ~from_:alice ~to_:bob ~value:(u 1) () in
      Chain.advance_time c 60;
      let r2 = Chain.submit_tx c ~from_:alice ~to_:bob ~value:(u 1) () in
      Alcotest.(check int) "block 1" 1 r1.Types.r_block_number;
      Alcotest.(check int) "block 2" 2 r2.Types.r_block_number;
      Alcotest.(check int) "ts 1" 1_640_995_260 r1.Types.r_block_timestamp;
      Alcotest.(check int) "ts 2" 1_640_995_320 r2.Types.r_block_timestamp;
      Alcotest.(check int) "2 receipts + 0 deploys" 2 (Chain.transaction_count c))

let receipts_from_is_suffix =
  Alcotest.test_case "receipts_from k is the suffix of all_receipts from k"
    `Quick (fun () ->
      let c = fresh_chain () in
      Chain.fund c alice (u 10);
      let hashes l = List.map (fun r -> r.Types.r_tx_hash) l in
      let check_all () =
        let all = Chain.all_receipts c in
        let n = Chain.transaction_count c in
        Alcotest.(check int) "count" (List.length all) n;
        for k = 0 to n do
          Alcotest.(check (list string))
            (Printf.sprintf "suffix from %d of %d" k n)
            (hashes (List.filteri (fun i _ -> i >= k) all))
            (hashes (Chain.receipts_from c k))
        done
      in
      check_all ();
      (* Transfers, a revert and a deploy: every kind that records a
         receipt. *)
      ignore (Chain.submit_tx c ~from_:alice ~to_:bob ~value:(u 1) ());
      check_all ();
      ignore (Chain.submit_tx c ~from_:alice ~to_:bob ~value:(u 400) ());
      ignore (Chain.deploy c ~from_:deployer (fun _ -> ()));
      ignore (Chain.submit_tx c ~from_:alice ~to_:bob ~value:(u 2) ());
      check_all ();
      Alcotest.check_raises "past the end" (Invalid_argument "Chain.receipts_from")
        (fun () -> ignore (Chain.receipts_from c (Chain.transaction_count c + 1))))

(* ------------------------------------------------------------------ *)
(* ERC-20                                                              *)

let deploy_token c =
  Erc20.deploy c ~from_:deployer ~name:"Test Token" ~symbol:"TT" ~decimals:18
    ~owner:deployer

let erc20_mint_and_transfer =
  Alcotest.test_case "mint then transfer updates balances and supply" `Quick
    (fun () ->
      let c = fresh_chain () in
      let token = deploy_token c in
      let r =
        Chain.submit_tx c ~from_:deployer ~to_:token
          ~input:(Erc20.mint_calldata ~to_:alice ~amount:(u 500))
          ()
      in
      Alcotest.(check bool) "mint ok" true (r.Types.r_status = Types.Success);
      let r2 =
        Chain.submit_tx c ~from_:alice ~to_:token
          ~input:(Erc20.transfer_calldata ~to_:bob ~amount:(u 200))
          ()
      in
      Alcotest.(check bool) "transfer ok" true (r2.Types.r_status = Types.Success);
      Alcotest.(check uint256) "alice" (u 300) (Erc20.balance_of c token alice);
      Alcotest.(check uint256) "bob" (u 200) (Erc20.balance_of c token bob);
      Alcotest.(check uint256) "supply" (u 500) (Erc20.total_supply c token))

let erc20_transfer_event_shape =
  Alcotest.test_case "transfer emits a decodable Transfer event" `Quick
    (fun () ->
      let c = fresh_chain () in
      let token = deploy_token c in
      ignore
        (Chain.submit_tx c ~from_:deployer ~to_:token
           ~input:(Erc20.mint_calldata ~to_:alice ~amount:(u 500))
           ());
      let r =
        Chain.submit_tx c ~from_:alice ~to_:token
          ~input:(Erc20.transfer_calldata ~to_:bob ~amount:(u 123))
          ()
      in
      match r.Types.r_logs with
      | [ log ] ->
          Alcotest.(check bool) "from token" true (Address.equal log.Types.log_address token);
          let decoded =
            Xcw_abi.Abi.Event.decode_log Erc20.transfer_event log.Types.topics
              log.Types.data
          in
          (match decoded with
          | [ ("from", Xcw_abi.Abi.Value.Address f);
              ("to", Xcw_abi.Abi.Value.Address t);
              ("value", Xcw_abi.Abi.Value.Uint v) ] ->
              Alcotest.(check bool) "from" true (Address.equal f alice);
              Alcotest.(check bool) "to" true (Address.equal t bob);
              Alcotest.(check uint256) "value" (u 123) v
          | _ -> Alcotest.fail "bad decode shape")
      | logs -> Alcotest.fail (Printf.sprintf "expected 1 log, got %d" (List.length logs)))

let erc20_insufficient_reverts =
  Alcotest.test_case "transfer beyond balance reverts, state intact" `Quick
    (fun () ->
      let c = fresh_chain () in
      let token = deploy_token c in
      ignore
        (Chain.submit_tx c ~from_:deployer ~to_:token
           ~input:(Erc20.mint_calldata ~to_:alice ~amount:(u 10))
           ());
      let r =
        Chain.submit_tx c ~from_:alice ~to_:token
          ~input:(Erc20.transfer_calldata ~to_:bob ~amount:(u 999))
          ()
      in
      Alcotest.(check bool) "reverted" true (r.Types.r_status = Types.Reverted);
      Alcotest.(check (list Alcotest.reject)) "no logs" [] r.Types.r_logs;
      Alcotest.(check uint256) "alice unchanged" (u 10) (Erc20.balance_of c token alice))

let erc20_transfer_from_allowance =
  Alcotest.test_case "transferFrom enforces and decrements allowance" `Quick
    (fun () ->
      let c = fresh_chain () in
      let token = deploy_token c in
      ignore
        (Chain.submit_tx c ~from_:deployer ~to_:token
           ~input:(Erc20.mint_calldata ~to_:alice ~amount:(u 100))
           ());
      (* bob tries without allowance *)
      let r =
        Chain.submit_tx c ~from_:bob ~to_:token
          ~input:(Erc20.transfer_from_calldata ~from_:alice ~to_:bob ~amount:(u 50))
          ()
      in
      Alcotest.(check bool) "rejected" true (r.Types.r_status = Types.Reverted);
      ignore
        (Chain.submit_tx c ~from_:alice ~to_:token
           ~input:(Erc20.approve_calldata ~spender:bob ~amount:(u 60))
           ());
      let r2 =
        Chain.submit_tx c ~from_:bob ~to_:token
          ~input:(Erc20.transfer_from_calldata ~from_:alice ~to_:bob ~amount:(u 50))
          ()
      in
      Alcotest.(check bool) "accepted" true (r2.Types.r_status = Types.Success);
      Alcotest.(check uint256) "remaining allowance" (u 10)
        (Erc20.allowance c token ~owner:alice ~spender:bob))

let erc20_mint_owner_only =
  Alcotest.test_case "mint by a non-owner reverts" `Quick (fun () ->
      let c = fresh_chain () in
      let token = deploy_token c in
      let r =
        Chain.submit_tx c ~from_:alice ~to_:token
          ~input:(Erc20.mint_calldata ~to_:alice ~amount:(u 500))
          ()
      in
      Alcotest.(check bool) "reverted" true (r.Types.r_status = Types.Reverted);
      Alcotest.(check uint256) "no tokens" U256.zero (Erc20.balance_of c token alice))

(* ------------------------------------------------------------------ *)
(* WETH                                                                *)

let weth_wrap_unwrap =
  Alcotest.test_case "deposit wraps native 1:1; withdraw unwraps" `Quick
    (fun () ->
      let c = fresh_chain () in
      let weth = Weth.deploy c ~from_:deployer ~name:"Wrapped Ether" ~symbol:"WETH" in
      Chain.fund c alice (u 1000);
      let r =
        Chain.submit_tx c ~from_:alice ~to_:weth ~value:(u 700)
          ~input:Weth.deposit_calldata ()
      in
      Alcotest.(check bool) "wrap ok" true (r.Types.r_status = Types.Success);
      Alcotest.(check uint256) "WETH balance" (u 700) (Erc20.balance_of c weth alice);
      Alcotest.(check uint256) "native escrowed" (u 700) (Chain.native_balance c weth);
      let r2 =
        Chain.submit_tx c ~from_:alice ~to_:weth
          ~input:(Weth.withdraw_calldata ~amount:(u 300))
          ()
      in
      Alcotest.(check bool) "unwrap ok" true (r2.Types.r_status = Types.Success);
      Alcotest.(check uint256) "WETH burned" (u 400) (Erc20.balance_of c weth alice);
      Alcotest.(check uint256) "native returned" (u 600) (Chain.native_balance c alice))

let weth_deposit_event =
  Alcotest.test_case "deposit emits Deposit(dst, wad)" `Quick (fun () ->
      let c = fresh_chain () in
      let weth = Weth.deploy c ~from_:deployer ~name:"Wrapped Ether" ~symbol:"WETH" in
      Chain.fund c alice (u 10);
      let r =
        Chain.submit_tx c ~from_:alice ~to_:weth ~value:(u 10)
          ~input:Weth.deposit_calldata ()
      in
      match r.Types.r_logs with
      | [ log ] ->
          let t0 = List.hd log.Types.topics in
          Alcotest.(check string)
            "topic0" (Xcw_util.Hex.encode (Xcw_abi.Abi.Event.topic0 Weth.deposit_event))
            (Xcw_util.Hex.encode t0)
      | _ -> Alcotest.fail "expected exactly one log")

let weth_plain_value_wraps =
  Alcotest.test_case "plain value transfer to WETH wraps via receive()" `Quick
    (fun () ->
      let c = fresh_chain () in
      let weth = Weth.deploy c ~from_:deployer ~name:"Wrapped Ether" ~symbol:"WETH" in
      Chain.fund c alice (u 42);
      let r = Chain.submit_tx c ~from_:alice ~to_:weth ~value:(u 42) () in
      Alcotest.(check bool) "ok" true (r.Types.r_status = Types.Success);
      Alcotest.(check uint256) "wrapped" (u 42) (Erc20.balance_of c weth alice))

(* ------------------------------------------------------------------ *)
(* Traces                                                              *)

let trace_records_internal_calls =
  Alcotest.test_case "internal calls appear in the call trace" `Quick
    (fun () ->
      let c = fresh_chain () in
      let token = deploy_token c in
      ignore
        (Chain.submit_tx c ~from_:deployer ~to_:token
           ~input:(Erc20.mint_calldata ~to_:alice ~amount:(u 100))
           ());
      (* A forwarder contract that calls token.transfer internally;
         models the intermediary protocols of Section 3.2. *)
      let forwarder =
        Chain.deploy c ~from_:deployer ~label:"forwarder" (fun env ->
            env.Chain.call token env.Chain.input)
      in
      ignore
        (Chain.submit_tx c ~from_:alice ~to_:token
           ~input:(Erc20.approve_calldata ~spender:forwarder ~amount:(u 100))
           ());
      let r =
        Chain.submit_tx c ~from_:alice ~to_:forwarder
          ~input:(Erc20.transfer_from_calldata ~from_:alice ~to_:bob ~amount:(u 5))
          ()
      in
      Alcotest.(check bool) "ok" true (r.Types.r_status = Types.Success);
      match Chain.trace c r.Types.r_tx_hash with
      | Some frame ->
          let flat = Types.flatten_calls frame in
          Alcotest.(check int) "two frames" 2 (List.length flat);
          let inner = List.nth flat 1 in
          Alcotest.(check bool) "inner targets token" true
            (Address.equal inner.Types.call_to token);
          Alcotest.(check int) "depth" 1 inner.Types.call_depth
      | None -> Alcotest.fail "missing trace")

let trace_internal_value_transfer =
  Alcotest.test_case "internal value transfers visible only in trace" `Quick
    (fun () ->
      let c = fresh_chain () in
      (* A splitter that forwards half its value to bob natively. *)
      let splitter =
        Chain.deploy c ~from_:deployer ~label:"splitter" (fun env ->
            let half = U256.div env.Chain.value (u 2) in
            env.Chain.transfer_native bob half)
      in
      Chain.fund c alice (u 100);
      let r = Chain.submit_tx c ~from_:alice ~to_:splitter ~value:(u 100) () in
      Alcotest.(check bool) "ok" true (r.Types.r_status = Types.Success);
      Alcotest.(check uint256) "bob got half" (u 50) (Chain.native_balance c bob);
      (* The receipt has no logs; the transfer is in the native
         balance movement, as the paper notes for tx.value flows. *)
      Alcotest.(check int) "no logs" 0 (List.length r.Types.r_logs))

let nested_revert_rolls_back_everything =
  Alcotest.test_case "a revert deep in nested internal calls rolls back all"
    `Quick (fun () ->
      let c = fresh_chain () in
      let token = deploy_token c in
      ignore
        (Chain.submit_tx c ~from_:deployer ~to_:token
           ~input:(Erc20.mint_calldata ~to_:alice ~amount:(u 100))
           ());
      (* outer -> middle (transfers tokens) -> inner (always reverts):
         the middle transfer must be undone. *)
      let inner =
        Chain.deploy c ~from_:deployer ~label:"inner" (fun _ ->
            raise (Chain.Revert "inner says no"))
      in
      let middle =
        Chain.deploy c ~from_:deployer ~label:"middle" (fun env ->
            env.Chain.call token env.Chain.input;
            env.Chain.call inner "x")
      in
      ignore
        (Chain.submit_tx c ~from_:alice ~to_:token
           ~input:(Erc20.approve_calldata ~spender:middle ~amount:(u 100))
           ());
      let r =
        Chain.submit_tx c ~from_:alice ~to_:middle
          ~input:(Erc20.transfer_from_calldata ~from_:alice ~to_:bob ~amount:(u 60))
          ()
      in
      Alcotest.(check bool) "reverted" true (r.Types.r_status = Types.Reverted);
      Alcotest.(check uint256) "alice untouched" (u 100)
        (Erc20.balance_of c token alice);
      Alcotest.(check uint256) "bob empty" U256.zero (Erc20.balance_of c token bob))

let gas_fees_charged =
  Alcotest.test_case "gas fees are charged at gas_price > 0" `Quick (fun () ->
      let c = fresh_chain () in
      Chain.fund c alice (U256.of_tokens ~decimals:18 1);
      let before = Chain.native_balance c alice in
      let r = Chain.submit_tx c ~gas_price:(u 10) ~from_:alice ~to_:bob ~value:(u 5) () in
      let after = Chain.native_balance c alice in
      let spent = U256.sub before after in
      Alcotest.(check bool) "more than the value left the account" true
        (U256.gt spent (u 5));
      Alcotest.(check bool) "fee = gas_used * price + value" true
        (U256.equal spent
           (U256.add (u 5) (U256.mul (u 10) (u r.Types.r_gas_used)))))

let deploy_addresses_deterministic =
  Alcotest.test_case "contract addresses follow the nonce sequence" `Quick
    (fun () ->
      let c = fresh_chain () in
      let a1 = Chain.deploy c ~from_:deployer ~label:"c1" (fun _ -> ()) in
      let a2 = Chain.deploy c ~from_:deployer ~label:"c2" (fun _ -> ()) in
      Alcotest.(check bool) "distinct" false (Address.equal a1 a2);
      Alcotest.(check bool) "matches derivation rule" true
        (Address.equal a1 (Address.contract_address ~sender:deployer ~nonce:0))
      ;
      Alcotest.(check bool) "nonce 1" true
        (Address.equal a2 (Address.contract_address ~sender:deployer ~nonce:1)))

let zero_amount_transfer_allowed =
  Alcotest.test_case "zero-amount ERC-20 transfers succeed with an event"
    `Quick (fun () ->
      let c = fresh_chain () in
      let token = deploy_token c in
      let r =
        Chain.submit_tx c ~from_:alice ~to_:token
          ~input:(Erc20.transfer_calldata ~to_:bob ~amount:U256.zero)
          ()
      in
      Alcotest.(check bool) "ok" true (r.Types.r_status = Types.Success);
      Alcotest.(check int) "one Transfer log" 1 (List.length r.Types.r_logs))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let prop_native_conservation =
  QCheck.Test.make ~name:"random transfers conserve total native supply"
    ~count:60
    QCheck.(pair (int_bound 100000) (list_of_size Gen.(1 -- 30) (pair (int_bound 4) (int_bound 1000))))
    (fun (seed, ops) ->
      let c = fresh_chain () in
      let accounts = Array.init 5 (fun k -> Address.of_seed (Printf.sprintf "acct%d-%d" seed k)) in
      Array.iter (fun a -> Chain.fund c a (u 10_000)) accounts;
      let total () =
        Array.fold_left
          (fun acc a -> U256.add acc (Chain.native_balance c a))
          U256.zero accounts
      in
      let before = total () in
      List.iteri
        (fun k (who, amount) ->
          let from_ = accounts.(who mod 5) and to_ = accounts.((who + k + 1) mod 5) in
          ignore (Chain.submit_tx c ~from_ ~to_ ~value:(u amount) ()))
        ops;
      U256.equal before (total ()))

let prop_erc20_supply_invariant =
  QCheck.Test.make
    ~name:"sum of ERC-20 balances equals total supply under random ops"
    ~count:40
    QCheck.(pair (int_bound 100000) (list_of_size Gen.(1 -- 25) (triple (int_bound 3) (int_bound 3) (int_bound 500))))
    (fun (seed, ops) ->
      let c = fresh_chain () in
      let accounts = Array.init 4 (fun k -> Address.of_seed (Printf.sprintf "h%d-%d" seed k)) in
      let token = deploy_token c in
      ignore
        (Chain.submit_tx c ~from_:deployer ~to_:token
           ~input:(Erc20.mint_calldata ~to_:accounts.(0) ~amount:(u 100_000))
           ());
      List.iter
        (fun (a, b, amount) ->
          (* Random transfers; some revert on insufficient balance,
             which must not corrupt state. *)
          ignore
            (Chain.submit_tx c ~from_:accounts.(a) ~to_:token
               ~input:(Erc20.transfer_calldata ~to_:accounts.(b) ~amount:(u amount))
               ()))
        ops;
      let sum =
        Array.fold_left
          (fun acc a -> U256.add acc (Erc20.balance_of c token a))
          U256.zero accounts
      in
      U256.equal sum (Erc20.total_supply c token))

let prop_weth_backing_invariant =
  QCheck.Test.make
    ~name:"WETH supply always backed by the contract's native balance"
    ~count:40
    QCheck.(pair (int_bound 100000) (list_of_size Gen.(1 -- 20) (pair bool (int_bound 300))))
    (fun (seed, ops) ->
      let c = fresh_chain () in
      let weth = Weth.deploy c ~from_:deployer ~name:"Wrapped Ether" ~symbol:"WETH" in
      let user = Address.of_seed (Printf.sprintf "weth-user-%d" seed) in
      Chain.fund c user (u 100_000);
      List.iter
        (fun (is_deposit, amount) ->
          if is_deposit then
            ignore
              (Chain.submit_tx c ~from_:user ~to_:weth ~value:(u amount)
                 ~input:Weth.deposit_calldata ())
          else
            ignore
              (Chain.submit_tx c ~from_:user ~to_:weth
                 ~input:(Weth.withdraw_calldata ~amount:(u amount))
                 ()))
        ops;
      U256.equal (Erc20.total_supply c weth) (Chain.native_balance c weth))

let () =
  Alcotest.run "chain"
    [
      ( "native",
        [
          native_transfer;
          native_insufficient;
          clock_monotonic;
          blocks_and_receipts;
          receipts_from_is_suffix;
        ] );
      ( "erc20",
        [
          erc20_mint_and_transfer;
          erc20_transfer_event_shape;
          erc20_insufficient_reverts;
          erc20_transfer_from_allowance;
          erc20_mint_owner_only;
        ] );
      ("weth", [ weth_wrap_unwrap; weth_deposit_event; weth_plain_value_wraps ]);
      ("traces", [ trace_records_internal_calls; trace_internal_value_transfer ]);
      ( "execution",
        [
          nested_revert_rolls_back_everything;
          gas_fees_charged;
          deploy_addresses_deterministic;
          zero_amount_transfer_allowed;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_native_conservation;
            prop_erc20_supply_invariant;
            prop_weth_backing_invariant;
          ] );
    ]
