(** The anomaly detector — orchestrates XChainWatcher's three phases:
    decode receipts over RPC, build logic relations, evaluate the
    cross-chain rules; then dissect the derived relations into the
    classified report reproducing the paper's Tables 3 and 4. *)

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
      (** S withdrawals with an id below this were requested before the
          collection window; classified as FPs (paper Section 5.2.5) *)
  i_rpc_seed : int;
  i_program : Xcw_datalog.Ast.program;
      (** the rules to evaluate; defaults to the shipped
          {!Rules.program}.  Replace with rules parsed from a [.dl]
          file to fine-tune per bridge; the dissection expects the
          standard relation names. *)
  i_source_fault : Fault.plan option;
  i_target_fault : Fault.plan option;
      (** fault plans injected into the per-chain RPC facades; [None]
          (the default) keeps every request infallible *)
  i_client_policy : Client.policy;
      (** retry/backoff policy of the resilient client wrapped around
          each facade *)
  i_endpoints : int;
      (** RPC endpoints per chain (default 1); above 1 every read goes
          through a Byzantine-tolerant quorum {!Xcw_rpc.Pool} of
          independently seeded facades over the same chain *)
  i_quorum : int;
      (** k-of-n agreement required by the pool (ignored with a single
          endpoint) *)
  i_source_endpoint_faults : Xcw_rpc.Fault.plan option list;
  i_target_endpoint_faults : Xcw_rpc.Fault.plan option list;
      (** per-endpoint fault overrides, by endpoint index: an entry
          replaces the side-wide plan for that endpoint ([None] = that
          endpoint is faultless); indices beyond the list fall back to
          the side-wide plan.  This is how tests make exactly one
          endpoint Byzantine. *)
  i_ndomains : int;
      (** worker domains for rule evaluation and log decoding
          ({!Xcw_datalog.Engine.run} / {!Decoder.decode_chain});
          1 (the default) runs the sequential paths untouched, and any
          value produces an identical report (see the determinism notes
          on those two functions) *)
}

val default_input :
  label:string ->
  plugin:Decoder.plugin ->
  config:Config.t ->
  source_chain:Chain.t ->
  target_chain:Chain.t ->
  pricing:Pricing.t ->
  input
(** Colocated RPC profiles, no pre-window cutoff, no fault injection,
    default retry policy, a single endpoint per chain. *)

val build_client :
  ?metrics:Xcw_obs.Metrics.t ->
  profile:Latency.profile ->
  seed:int ->
  policy:Client.policy ->
  endpoints:int ->
  quorum:int ->
  fault:Fault.plan option ->
  endpoint_faults:Fault.plan option list ->
  Chain.t ->
  Client.t
(** Build one side's client the way {!run} and {!Monitor} do: a plain
    single-endpoint client when [endpoints <= 1], otherwise a
    {!Client.create_pooled} quorum pool of [endpoints] independently
    seeded facades (endpoint [j] is seeded [seed + j * 7919], so
    endpoint 0 reproduces the single-endpoint streams exactly). *)

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

val run : input -> result

(** {1 Attack summary (Section 5.2.5 / Finding 8)} *)

type attack_summary = {
  as_events : int;  (** unmatched S withdrawals with no correspondence *)
  as_transactions : int;  (** unique transaction hashes *)
  as_beneficiaries : int;  (** unique receiving addresses *)
  as_total_usd : float;
}

val attack_summary : source_chain_id:int -> result -> attack_summary
(** Forged-withdrawal evidence: rule-8 S-side no-correspondence events
    (pre-window FPs excluded). *)
