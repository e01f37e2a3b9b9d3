(** Proof-carrying exit-bridge workload with pessimistic accounting.

    Models a "local exit tree" bridge lane on top of a benign {!Generic}
    base: the origin chain appends a Merkle leaf per exit deposit and
    seals the tree root per epoch; a bonded validator set attests to the
    sealed roots on the destination chain, where claims execute against
    a presented root and inclusion proof.  The simulated exit contracts
    deliberately verify {e nothing} — the watcher re-verifies every
    proof while decoding ({!Xcw_core.Decoder}) and the pessimistic
    accounting stratum (the last rules of [rules/cross_chain_rules.dl])
    derives the violations.

    Five attack classes the pre-existing 50 rules cannot flag are
    injected strictly after the benign build (same differential
    contract as {!Attacks}): claims against stale roots, forged
    inclusion proofs, exit-root divergence between chains, net-outflow
    violations (claims exceed deposits for a token/chain pair), and
    slashing evasion (a validator withdrawing stake after signing a
    divergent root). *)

module Report = Xcw_core.Report

(** Benign exit-lane shape, riding on [b_base].  All sizes are
    validated by {!build_benign}: [Invalid_argument] out of range. *)
type base = {
  b_seed : int;
  b_label : string;
  b_validators : int;  (** bonded validators; >= 2 *)
  b_epochs : int;  (** sealed epochs; >= 2 *)
  b_deposits_per_epoch : int;  (** >= 2 *)
  b_stake : int;  (** bond per validator; >= 1 *)
  b_tree_depth : int;
      (** exit-tree depth, [1 .. Merkle.max_depth]; capacity must cover
          the benign deposits plus an injection reserve of 4 leaves *)
  b_base : Generic.spec;  (** the benign bridge the lane rides on *)
}

val default_base : base
(** Seed 1, 3 validators, 2 epochs x 3 deposits, depth 8, on a
    small {!Generic.default_spec} base. *)

type spec = {
  e_class : Report.acc_class;
  e_base : base;
}

val default_spec : Report.acc_class -> spec

type injected = {
  inj_built : Scenario.built;
  inj_spec : spec;
  inj_attack_txs : string list;
      (** sorted tx hashes the class's accounting rule must flag —
          exactly these, nothing else.  For {!Report.Slashing_evasion}
          the divergence rule additionally flags
          [inj_divergence_txs]. *)
  inj_divergence_txs : string list;
      (** sorted root-signature tx hashes that (only for
          {!Report.Slashing_evasion}) also surface as exit-root
          divergence — the documented overlap of that class; empty for
          the other four *)
  inj_txs : string list;
      (** sorted tx hashes added relative to the benign twin (attack
          plus setup traffic such as the net-outflow deposits) *)
}

val build : spec -> injected
(** Benign base first, then the injection.  Deterministic: the same
    spec reproduces byte-identical chains. *)

val benign_twin : spec -> Scenario.built
(** The same benign scenario without the injection. *)

val build_benign : base -> Scenario.built
(** Just the benign exit lane: deposits, sealed epochs, unanimous
    honest attestations, claims of the tail half of the leaves with
    valid proofs against the final root.  Derives zero accounting
    violations. *)

val build_undeposited_claim : base -> Scenario.built
(** Benign lane plus one claim for a token that was never deposited —
    the edge the no-deposit net-outflow clause catches (and, since no
    leaf exists to prove, the forged-proof rule too). *)
