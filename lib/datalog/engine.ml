(** Datalog evaluation engine.

    Bottom-up, stratified, semi-naive evaluation with hash-indexed
    joins — the same evaluation strategy class as Souffle's interpreter,
    which the paper uses.  The Ronin analysis pushes >1.5 million fact
    tuples through ~30 rules, so join performance matters: relations
    maintain on-demand hash indices keyed by bound column positions.

    Aggregation is supported only as declared grouped sums over EDB
    relations, computed before the first stratum ({!aggregate}).
    Unsupported (not needed by the cross-chain rules): aggregation over
    rule output, arithmetic in rule heads, and non-stratifiable
    negation (rejected with [Not_stratifiable]). *)

open Ast
module Metrics = Xcw_obs.Metrics
module Span = Xcw_obs.Span
module Pool = Xcw_par.Pool

exception Unsafe_rule of string
exception Not_stratifiable of string

(* ------------------------------------------------------------------ *)
(* Relations with on-demand indices                                    *)

module Relation = struct
  type tuple = int array
  (** A tuple of {!Ast.packed} constants — interned at load time, so
      equality/hashing/joining never touch a string. *)

  (* Tuples and index keys are flat int arrays.  The generic
     polymorphic hash would work, but a dedicated functor instance
     skips the tag dispatch, never truncates (Hashtbl.hash stops after
     10 meaningful words), and makes the hash explicit. *)
  module Key = struct
    type t = int array

    let equal (a : int array) (b : int array) =
      let n = Array.length a in
      n = Array.length b
      &&
      let i = ref 0 in
      while !i < n && Array.unsafe_get a !i = Array.unsafe_get b !i do
        incr i
      done;
      !i = n

    let hash (a : int array) =
      let h = ref 0 in
      for i = 0 to Array.length a - 1 do
        h := (!h * 0x9E3779B1) + Array.unsafe_get a i
      done;
      let h = !h in
      (h lxor (h lsr 17)) land max_int
  end

  module Ktbl = Hashtbl.Make (Key)

  (* O(1) slot and shard picks over packed-int keys.  Packed constants
     are far from uniform in their low bits — string constants are
     sequential intern ids shifted left with the tag bit set (all odd),
     ints are all even — so masking a raw sum would use half the slots
     or shards at best.  Re-mixing the accumulated key hash with a
     multiply–xor–shift finalizer (murmur3-style) avalanches the low
     bits before the mask; the distribution test in test_interned.ml
     pins this property. *)
  let mix k =
    let h = k * 0x9E3779B1 in
    let h = h lxor (h lsr 16) in
    let h = h * 0x85EBCA77 in
    h lxor (h lsr 13)

  (* The one hash table, behind a relation's tuple set and every index
     shard: keys in insertion order, each key's hash cached beside it,
     and an open-addressing slot table over them, instead of a
     [Ktbl.t]:

     - a probe or insert hashes its key {e once} (stdlib hash tables
       hash again per operation, so a mem-then-insert pair hashes a new
       key twice);
     - slot probes reject a non-equal key on a one-word hash compare
       before touching the arrays, and growing the slot table re-places
       entries from their cached hashes without re-hashing a key;
     - iteration order is insertion order by construction — stable,
       load-order-reproducible, and shared for free by a relation's
       [iter], [to_list] and [to_array] (the latter a plain
       [Array.sub]);
     - no per-entry list cells: keys, hashes and slots are flat arrays.

     A slot stores (entry index + 1), 0 meaning empty; load factor
     ≤ 1/2.  There is no deletion — [table_clear] empties the table. *)
  type table = {
    mutable keys : int array array;  (* entries [0, n) live *)
    mutable hashes : int array;  (* cached [Key.hash] per entry *)
    mutable n : int;
    mutable slots : int array;  (* power-of-two length *)
  }

  let table_create cap =
    let cap = max 8 cap in
    let slots = ref 32 in
    while !slots < 2 * cap do
      slots := 2 * !slots
    done;
    {
      keys = Array.make cap [||];
      hashes = Array.make cap 0;
      n = 0;
      slots = Array.make !slots 0;
    }

  (* Locate [key] (whose hash is [h]): returns the slot {e content}
     ([entry index + 1]) when present, and [-(s + 1)] for the first
     empty slot [s] of its probe sequence when absent. *)
  let table_find t (h : int) (key : int array) =
    let slots = t.slots in
    let hashes = t.hashes in
    let keys = t.keys in
    let mask = Array.length slots - 1 in
    let i = ref (mix h land mask) in
    let res = ref 0 in
    let searching = ref true in
    while !searching do
      let e = Array.unsafe_get slots !i in
      if e = 0 then begin
        res := -(!i + 1);
        searching := false
      end
      else if
        Array.unsafe_get hashes (e - 1) = h
        && Key.equal (Array.unsafe_get keys (e - 1)) key
      then begin
        res := e;
        searching := false
      end
      else i := (!i + 1) land mask
    done;
    !res

  (* Double the slot table, re-placing every live entry from its cached
     hash — no key is re-hashed. *)
  let table_grow t =
    let size = 2 * Array.length t.slots in
    let slots = Array.make size 0 in
    let mask = size - 1 in
    for j = 0 to t.n - 1 do
      let i = ref (mix (Array.unsafe_get t.hashes j) land mask) in
      while Array.unsafe_get slots !i <> 0 do
        i := (!i + 1) land mask
      done;
      Array.unsafe_set slots !i (j + 1)
    done;
    t.slots <- slots

  let resize a len fill =
    let b = Array.make len fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  (* Append [key], absent by [f = table_find t h key], and return its
     entry index.  The table owns [key] afterwards. *)
  let table_append t h key f =
    let i = t.n in
    if i = Array.length t.keys then begin
      t.keys <- resize t.keys (2 * i) [||];
      t.hashes <- resize t.hashes (2 * i) 0
    end;
    Array.unsafe_set t.keys i key;
    Array.unsafe_set t.hashes i h;
    let f =
      if 2 * (i + 1) > Array.length t.slots then begin
        (* The empty slot [f] names is stale after growth. *)
        table_grow t;
        table_find t h key
      end
      else f
    in
    t.slots.(-f - 1) <- i + 1;
    t.n <- i + 1;
    i

  let table_clear t =
    Array.fill t.keys 0 t.n [||];
    t.n <- 0;
    Array.fill t.slots 0 (Array.length t.slots) 0

  (* An index is sharded by key hash into a fixed number of sub-tables
     so a large build can be filled by several domains at once — one
     task per shard, no shared mutable table.  The shard count is a
     constant, never a function of the pool, so the structure (and with
     it every lookup result) is identical at any worker count; within a
     shard, the tuples of one key are inserted in relation-iteration
     order exactly as an unsharded fill would insert them, so each
     per-key candidate list is identical to a sequential on-demand
     build.  A shard's table maps a projected key to its entry index in
     the candidate-list array; one hash per probe or insert picks the
     shard {e and} the slot. *)
  type ishard = {
    st : table;  (* projected keys *)
    mutable sv : tuple list ref array;  (* candidates per key, newest first *)
  }

  type index = {
    ix_positions : int array;
    ix_shards : ishard array;
    ix_scratch : int array;
        (* projection buffer for [index_insert], so a tuple whose key
           is already present allocates nothing.  Safe because every
           [index_insert] context is single-writer: sequential adds,
           the parallel merge (submitter only), and whole-index fill
           tasks (one task per index, disjoint scratches). *)
  }

  type t = {
    mutable arity : int option;
    tuples : table;
    (* position list -> key-hash-sharded (projected key -> tuples) *)
    indices : (int list, index) Hashtbl.t;
    (* same indices as a list — [add] maintains every index per tuple,
       and walking a cons list beats an [Hashtbl.iter] bucket sweep on
       a path taken once per inserted tuple. *)
    mutable index_list : index list;
  }

  let nshards = 16
  let shard_of_key (key : int array) = mix (Key.hash key) land (nshards - 1)

  let create () =
    {
      arity = None;
      tuples = table_create 16;
      indices = Hashtbl.create 4;
      index_list = [];
    }

  let size t = t.tuples.n
  let mem t tuple = table_find t.tuples (Key.hash tuple) tuple > 0

  let check_arity t tuple =
    match t.arity with
    | None -> t.arity <- Some (Array.length tuple)
    | Some a ->
        if a <> Array.length tuple then
          invalid_arg
            (Printf.sprintf "Relation: arity mismatch (%d vs %d)" a
               (Array.length tuple))

  let project (positions : int array) (tuple : tuple) =
    let np = Array.length positions in
    let key = Array.make np 0 in
    for j = 0 to np - 1 do
      key.(j) <- tuple.(Array.unsafe_get positions j)
    done;
    key

  let ishard_create cap =
    let st = table_create cap in
    { st; sv = Array.make (Array.length st.keys) (ref []) }

  (* Cons [tuple] onto [key]'s candidate list, creating the entry if
     the key is new.  [h] must be [Key.hash key].  [~copy_key] copies
     the key array before storing it — pass [false] only when the
     caller owns [key] outright (the parallel fill, whose key arrays
     are freshly projected per tuple). *)
  let ishard_add (s : ishard) (h : int) (key : int array) ~copy_key tuple =
    let f = table_find s.st h key in
    if f > 0 then begin
      let l = Array.unsafe_get s.sv (f - 1) in
      l := tuple :: !l
    end
    else begin
      let i = table_append s.st h (if copy_key then Array.copy key else key) f in
      if i = Array.length s.sv then
        s.sv <- resize s.sv (Array.length s.st.keys) (ref []);
      s.sv.(i) <- ref [ tuple ]
    end

  let ishard_reset (s : ishard) =
    Array.fill s.sv 0 s.st.n (ref []);
    table_clear s.st

  let index_insert (idx : index) tuple =
    let key = idx.ix_scratch in
    let positions = idx.ix_positions in
    for j = 0 to Array.length positions - 1 do
      Array.unsafe_set key j
        (Array.unsafe_get tuple (Array.unsafe_get positions j))
    done;
    let h = Key.hash key in
    ishard_add idx.ix_shards.(mix h land (nshards - 1)) h key ~copy_key:true
      tuple

  (** [add t tuple] inserts; returns [true] if the tuple is new. *)
  let add t tuple =
    check_arity t tuple;
    let h = Key.hash tuple in
    let f = table_find t.tuples h tuple in
    f < 0
    && begin
         ignore (table_append t.tuples h tuple f);
         List.iter (fun idx -> index_insert idx tuple) t.index_list;
         true
       end

  (* Insertion order — which [to_list] and [to_array] share, so
     parallel chunking (which partitions the array) visits candidates
     in exactly the order the sequential path does.  Keys and count are
     latched up front: entries below [n] are immutable once appended,
     so this behaves as a snapshot even if [f] adds tuples (a
     recursive rule joining over its own head). *)
  let iter t f =
    let log = t.tuples.keys and n = t.tuples.n in
    for i = 0 to n - 1 do
      f (Array.unsafe_get log i)
    done

  let to_list t =
    let l = ref [] in
    for i = t.tuples.n - 1 downto 0 do
      l := Array.unsafe_get t.tuples.keys i :: !l
    done;
    !l

  let to_array t = Array.sub t.tuples.keys 0 t.tuples.n

  (** [clear t] removes every tuple but keeps the arity and the set of
      registered index position-lists, so indices built by earlier
      lookups are maintained (not rebuilt) by subsequent [add]s — the
      retraction primitive for re-deriving non-monotonic relations in
      place. *)
  let clear t =
    table_clear t.tuples;
    Hashtbl.iter (fun _ idx -> Array.iter ishard_reset idx.ix_shards) t.indices

  let new_index t positions : index =
    {
      ix_positions = Array.of_list positions;
      ix_shards =
        Array.init nshards (fun _ -> ishard_create (size t / (2 * nshards)));
      ix_scratch = Array.make (List.length positions) 0;
    }

  (** [ensure_index t positions] builds the hash index for [positions]
      if absent.  Parallel evaluation pre-builds every index a stratum
      can touch so worker domains only ever {e read} the relation. *)
  let ensure_index t positions =
    match positions with
    | [] -> ()
    | _ ->
        if not (Hashtbl.mem t.indices positions) then begin
          let idx = new_index t positions in
          iter t (fun tuple -> index_insert idx tuple);
          Hashtbl.replace t.indices positions idx;
          t.index_list <- idx :: t.index_list
        end

  (* Parallel index construction: register the (empty) index on the
     submitting domain — so a single thread owns the [indices] map —
     and return closures that fill it on any domain.  [`Fill f] is one
     task for the whole index (small relations).  [`Sharded (n, ka, is)]
     splits a big fill two ways: [ka lo hi] projects and shard-hashes
     tuples [lo, hi) of a snapshot array into scratch arrays (disjoint
     ranges, any domain), and — only after {e every} range task has
     run — [is s] inserts the tuples of shard [s] (one task per shard,
     each owning a disjoint sub-table).  The snapshot array is in
     iteration (insertion) order, so the insert loop walks it forward
     to reproduce the exact insert order of a sequential fill.
     Contract: no [add] until every
     returned phase has run, or the tuple would be indexed twice.
     [None] when the index already exists (or [positions] is empty). *)
  let shard_fill_threshold = 4096

  let prepare_index t positions =
    match positions with
    | [] -> None
    | _ ->
        if Hashtbl.mem t.indices positions then None
        else begin
          let idx = new_index t positions in
          Hashtbl.replace t.indices positions idx;
          t.index_list <- idx :: t.index_list;
          let n = size t in
          if n < shard_fill_threshold then
            Some (`Fill (fun () -> iter t (fun tuple -> index_insert idx tuple)))
          else begin
            let arr = to_array t in
            let keys = Array.make n [||] in
            let hs = Array.make n 0 in
            let shards = Array.make n 0 in
            let keys_range lo hi =
              for i = lo to hi - 1 do
                let key = project idx.ix_positions arr.(i) in
                let h = Key.hash key in
                keys.(i) <- key;
                hs.(i) <- h;
                shards.(i) <- mix h land (nshards - 1)
              done
            in
            let insert_shard s =
              let sh = idx.ix_shards.(s) in
              for i = 0 to n - 1 do
                if shards.(i) = s then
                  ishard_add sh hs.(i) keys.(i) ~copy_key:false arr.(i)
              done
            in
            Some (`Sharded (n, keys_range, insert_shard))
          end
        end

  (** [find_index t positions] returns the hash index for [positions],
      building it on first use.  [positions] must be non-empty.  The
      returned handle stays valid for the relation's whole lifetime:
      indices are registered once and maintained in place (even across
      {!clear}), never replaced — which is what lets the evaluator
      cache it per compiled probe instead of re-walking the
      position-list hash table on every lookup. *)
  let find_index t positions : index =
    ensure_index t positions;
    Hashtbl.find t.indices positions

  (** [probe idx key] returns all tuples of [idx] whose projection
      equals [key]. *)
  let probe (idx : index) (key : int array) =
    let h = Key.hash key in
    let s = idx.ix_shards.(mix h land (nshards - 1)) in
    let f = table_find s.st h key in
    if f > 0 then !(Array.unsafe_get s.sv (f - 1)) else []

  (** [lookup t positions key] returns all tuples whose projection on
      [positions] equals [key], using (and building on first use) a hash
      index. *)
  let lookup t positions (key : int array) =
    match positions with
    | [] -> to_list t
    | _ -> probe (find_index t positions) key
end

(* ------------------------------------------------------------------ *)
(* Database                                                            *)

(* A database is designed to persist across evaluation runs (the
   streaming monitor keeps one per bridge): [db_journal] records EDB
   tuples inserted since the last run — the initial semi-naive delta of
   [run_incremental] — and [db_derived] records which predicates the
   engine itself populates, so retraction can clear exactly those.
   Nothing is journaled before the first run, which evaluates the
   whole program and reads no delta. *)
type db = {
  db_rels : (string, Relation.t) Hashtbl.t;
  db_journal : (string, Relation.tuple list ref) Hashtbl.t;
  db_derived : (string, unit) Hashtbl.t;
  mutable db_ran : bool;  (** at least one evaluation has completed *)
  mutable db_gen : int;
      (** renewed whenever a relation is created — the only change the
          evaluator's per-atom relation-handle caches need to observe
          (relations are never replaced or removed, only added).  Drawn
          from {!generations}, so no two databases ever share one. *)
}

(* One counter for the whole process, not one per database: a plan's
   compiled rules outlive any one database (a monitor rebuilds its
   database after a reorg rewind or a restart, creating the same
   relations in the same order), and an atom's cached relation must
   never be taken for another database's because their creation
   counts happen to agree. *)
let generations = Atomic.make 0
let next_generation () = Atomic.fetch_and_add generations 1 + 1

let create_db () : db =
  {
    db_rels = Hashtbl.create 64;
    db_journal = Hashtbl.create 16;
    db_derived = Hashtbl.create 16;
    db_ran = false;
    db_gen = next_generation ();
  }

let relation (db : db) pred =
  match Hashtbl.find_opt db.db_rels pred with
  | Some r -> r
  | None ->
      let r = Relation.create () in
      Hashtbl.replace db.db_rels pred r;
      db.db_gen <- next_generation ();
      r

(** [insert_packed db pred tuple] inserts an already-packed tuple and
    returns [true] iff it is new.  The fact-loading hot path: no
    [const] boxes are ever allocated.  The array is owned by the
    database afterwards — callers must not mutate it.  Once the
    database has been evaluated, new tuples are journaled as part of
    the delta for the next {!run_incremental}. *)
let insert_packed (db : db) pred (t : Relation.tuple) =
  Relation.add (relation db pred) t
  && begin
       if db.db_ran then begin
         match Hashtbl.find_opt db.db_journal pred with
         | Some l -> l := t :: !l
         | None -> Hashtbl.replace db.db_journal pred (ref [ t ])
       end;
       true
     end

(** [insert_fact db pred tuple] packs and inserts; [true] iff new. *)
let insert_fact (db : db) pred tuple =
  insert_packed db pred (Array.of_list (List.map Ast.pack tuple))

let add_fact (db : db) pred tuple = ignore (insert_fact db pred tuple)

(* Decoded and sorted: relation contents are sets held in hash tables
   whose traversal order depends on hash values — which the interning
   scheme ties to load order.  Every output-facing consumer (dissect
   rows, alert streams, exports) reads facts through here, so sorting
   makes reports a function of the fact {e set}, not the load order. *)
let facts (db : db) pred =
  match Hashtbl.find_opt db.db_rels pred with
  | Some r ->
      List.sort compare
        (List.rev_map (Array.map Ast.unpack) (Relation.to_list r))
  | None -> []

let packed_facts (db : db) pred =
  match Hashtbl.find_opt db.db_rels pred with
  | Some r -> Relation.to_list r
  | None -> []

let fact_count (db : db) pred =
  match Hashtbl.find_opt db.db_rels pred with
  | Some r -> Relation.size r
  | None -> 0

let total_tuples (db : db) =
  Hashtbl.fold (fun _ r acc -> acc + Relation.size r) db.db_rels 0

let derived_predicates (db : db) =
  List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) db.db_derived [])

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Souffle's TSV reader has no in-band escaping, so a raw tab or
   newline inside a fact value would silently shift every following
   cell.  We emit backslash escapes for the four dangerous characters;
   consumers that need the exact original can unescape them. *)
let escape_cell s =
  let needs_escape = ref false in
  String.iter
    (function '\t' | '\n' | '\r' | '\\' -> needs_escape := true | _ -> ())
    s;
  if not !needs_escape then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (function
        | '\t' -> Buffer.add_string buf "\\t"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\\' -> Buffer.add_string buf "\\\\"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

(** Write every relation as a tab-separated [<pred>.facts] file in
    [dir] — the input format Souffle consumes, so an exported fact base
    can be fed to the original XChainWatcher artifact for
    cross-validation.  [dir] and its parents are created as needed;
    tabs/newlines/backslashes inside values are backslash-escaped.
    Rows are sorted lexicographically, so the files are byte-stable
    across insertion orders and worker counts (a relation is a set; the
    hash-table iteration order is an implementation detail). *)
let dump_facts (db : db) ~dir =
  mkdir_p dir;
  Hashtbl.iter
    (fun pred rel ->
      (* Write-temp + atomic rename: a crash mid-dump must never leave
         a truncated [.facts] file where a reader expects a complete
         one.  The temp name is deterministic, so a leftover from an
         aborted dump is simply overwritten on the next attempt. *)
      let path = Filename.concat dir (pred ^ ".facts") in
      let tmp = path ^ ".tmp" in
      let oc = open_out tmp in
      let lines = ref [] in
      Relation.iter rel (fun tuple ->
          let cells =
            Array.to_list tuple
            |> List.map (fun p ->
                   if Ast.packed_is_int p then Ast.packed_to_string p
                   else escape_cell (Ast.packed_to_string p))
          in
          lines := String.concat "\t" cells :: !lines);
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (List.sort compare !lines);
      close_out oc;
      Sys.rename tmp path)
    db.db_rels

(* ------------------------------------------------------------------ *)
(* Safety checks                                                       *)

let check_rule_safety (r : rule) =
  let bound = ref [] in
  List.iter
    (function
      | Pos a -> bound := atom_vars a @ !bound
      | Neg _ | Cmp _ -> ())
    r.body;
  let is_bound v = List.mem v !bound in
  List.iter
    (fun v ->
      if not (is_bound v) then
        raise
          (Unsafe_rule
             (Format.asprintf "head variable %s not bound by a positive literal in %a" v
                pp_rule r)))
    (atom_vars r.head);
  List.iter
    (function
      | Neg a ->
          List.iter
            (fun v ->
              if not (is_bound v) then
                raise
                  (Unsafe_rule
                     (Format.asprintf "negated variable %s unbound in %a" v pp_rule r)))
            (atom_vars a)
      | Cmp (_, l, rr) ->
          List.iter
            (fun v ->
              if not (is_bound v) then
                raise
                  (Unsafe_rule
                     (Format.asprintf "comparison variable %s unbound in %a" v pp_rule r)))
            (expr_vars l @ expr_vars rr)
      | Pos _ -> ())
    r.body

(* ------------------------------------------------------------------ *)
(* Stratification                                                      *)

(** Compute strata via the strongly connected components of the
    head-predicate dependency graph, in topological order.  Each SCC
    becomes its own stratum; a negative edge inside an SCC makes the
    program non-stratifiable.  The returned [bool] is whether the
    stratum is recursive (needs fixpoint iteration): non-recursive
    strata — the common case for the cross-chain rules — are evaluated
    in a single pass. *)
let stratify (rules : rule list) : (rule list * bool) list =
  let preds =
    List.sort_uniq compare (List.map (fun r -> r.head.pred) rules)
  in
  let derived p = List.mem p preds in
  (* Dependency edges head -> body-predicate, with polarity. *)
  let deps = Hashtbl.create 64 in
  let add_dep h b negated =
    let l = Option.value (Hashtbl.find_opt deps h) ~default:[] in
    if not (List.mem (b, negated) l) then Hashtbl.replace deps h ((b, negated) :: l)
  in
  List.iter
    (fun r ->
      List.iter
        (function
          | Pos a when derived a.pred -> add_dep r.head.pred a.pred false
          | Neg a when derived a.pred -> add_dep r.head.pred a.pred true
          | _ -> ())
        r.body)
    rules;
  let successors p =
    Option.value (Hashtbl.find_opt deps p) ~default:[] |> List.map fst
  in
  (* Tarjan's SCC algorithm; emits SCCs in reverse topological order of
     the condensation (dependencies last), so we reverse at the end to
     evaluate dependencies first. *)
  let index = Hashtbl.create 16 and lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (successors v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      (* Pop the component. *)
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter (fun p -> if not (Hashtbl.mem index p) then strongconnect p) preds;
  let ordered = List.rev !sccs (* topological: dependencies first *) in
  List.filter_map
    (fun component ->
      let in_component p = List.mem p component in
      (* Recursive iff the component has an internal edge. *)
      let recursive =
        List.exists
          (fun p ->
            List.exists
              (fun (b, negated) ->
                if in_component b then begin
                  if negated then
                    raise
                      (Not_stratifiable
                         (Printf.sprintf "negation cycle through %s" p));
                  true
                end
                else false)
              (Option.value (Hashtbl.find_opt deps p) ~default:[]))
          component
      in
      let group = List.filter (fun r -> in_component r.head.pred) rules in
      if group = [] then None else Some (group, recursive))
    ordered

(* ------------------------------------------------------------------ *)
(* Rule evaluation                                                     *)

(* Rules are compiled before evaluation: every variable gets an integer
   slot, and the body is evaluated as a depth-first backtracking join
   over a single mutable environment.  Compared to materializing
   substitution lists per literal, this allocates almost nothing per
   candidate tuple — rule evaluation over large fact bases is
   allocation-bound. *)

(* [S_const] holds the {e packed} constant (see {!Ast.packed}). *)
type slot_term = S_const of int | S_var of int

(* [c_rel]/[c_gen] cache the atom's relation handle per database
   generation: resolving the predicate through [db_rels] costs a string
   hash per probe, and the resolution can only change when a relation
   is created ([db_gen] renews).  Rules are compiled once per {!plan}
   and evaluated against every database the plan runs on; a cache
   filled on one database never matches another's generation, since
   generations are unique across databases.  During a parallel pass
   the caches are pre-resolved on the submitting domain
   ([resolve_caches]) and [db_gen] is frozen, so worker domains only
   ever {e read} them. *)
type compiled_atom = {
  c_pred : string;
  c_args : slot_term array;
  mutable c_rel : Relation.t option;
  mutable c_gen : int;
}

type pr_cache = PC_none | PC_some of Relation.t * Relation.index

(* A probe: the statically-known bound positions of a positive body
   literal, with the key sources aligned position-for-position.  The
   variable slots bound when control reaches a body literal are
   statically known — evaluation is strictly left-to-right, positive
   literals bind all their variables, negations and comparisons bind
   none — so there is no per-candidate scan for bound positions: a
   probe fills a small int-array key from a precomputed template.  [pr_cache] holds
   the resolved index handle (valid as long as the cached relation is
   the atom's current one — index handles themselves never go stale,
   see {!Relation.find_index}). *)
type probe = {
  pr_positions : int list;  (* index registration/lookup key *)
  pr_sources : slot_term array;  (* aligned with pr_positions *)
  mutable pr_cache : pr_cache;
}

type compiled_expr =
  | CE_packed of int
  | CE_var of int
  | CE_add of compiled_expr * compiled_expr
  | CE_sub of compiled_expr * compiled_expr
  | CE_mul of compiled_expr * compiled_expr

type compiled_literal =
  | C_pos of compiled_atom * probe
  | C_neg of compiled_atom
  | C_cmp of cmp_op * compiled_expr * compiled_expr

type compiled_rule = {
  cr_nvars : int;
  cr_head : compiled_atom;
  cr_body : compiled_literal array;
  cr_seconds : Metrics.Histogram.t;  (* [xcw_datalog_rule_seconds] *)
}

let compile_rule ~seconds (r : rule) : compiled_rule =
  let slots = Hashtbl.create 16 in
  let nvars = ref 0 in
  let slot_of v =
    match Hashtbl.find_opt slots v with
    | Some i -> i
    | None ->
        let i = !nvars in
        incr nvars;
        Hashtbl.replace slots v i;
        i
  in
  let compile_term = function
    | Const c -> S_const (Ast.pack c)
    | Var v -> S_var (slot_of v)
  in
  let compile_atom (a : atom) =
    {
      c_pred = a.pred;
      c_args = Array.of_list (List.map compile_term a.args);
      c_rel = None;
      c_gen = min_int;
    }
  in
  let rec compile_expr = function
    | E_const c -> CE_packed (Ast.pack c)
    | E_var v -> CE_var (slot_of v)
    | E_add (a, b) -> CE_add (compile_expr a, compile_expr b)
    | E_sub (a, b) -> CE_sub (compile_expr a, compile_expr b)
    | E_mul (a, b) -> CE_mul (compile_expr a, compile_expr b)
  in
  let head = compile_atom r.head in
  let body_atoms =
    List.map
      (function
        | Pos a -> `Pos (compile_atom a)
        | Neg a -> `Neg (compile_atom a)
        | Cmp (op, a, b) -> `Cmp (op, compile_expr a, compile_expr b))
      r.body
  in
  (* Left-to-right bound-slot tracking for the probe templates; all
     slots exist now that head and body are compiled. *)
  let bound = Array.make (max 1 !nvars) false in
  let body =
    List.map
      (function
        | `Pos (a : compiled_atom) ->
            let positions = ref [] and sources = ref [] in
            Array.iteri
              (fun k arg ->
                match arg with
                | S_const _ ->
                    positions := k :: !positions;
                    sources := arg :: !sources
                | S_var i ->
                    if bound.(i) then begin
                      positions := k :: !positions;
                      sources := arg :: !sources
                    end)
              a.c_args;
            Array.iter
              (function S_var i -> bound.(i) <- true | S_const _ -> ())
              a.c_args;
            C_pos
              ( a,
                {
                  pr_positions = List.rev !positions;
                  pr_sources = Array.of_list (List.rev !sources);
                  pr_cache = PC_none;
                } )
        | `Neg a -> C_neg a
        | `Cmp (op, a, b) -> C_cmp (op, a, b))
      body_atoms
  in
  {
    cr_nvars = !nvars;
    cr_head = head;
    cr_body = Array.of_list body;
    cr_seconds = seconds;
  }

(* The environment: one packed constant per variable slot.  [min_int]
   marks an unbound slot; {!Ast.pack_int} excludes it from the packed
   range, so no binding can collide with the sentinel. *)
type env = int array

let unbound = min_int

let arith_error p =
  raise
    (Unsafe_rule (Printf.sprintf "string %S in arithmetic" (Ast.packed_to_string p)))

let rec eval_cexpr (env : env) = function
  | CE_packed p -> if p land 1 = 0 then p asr 1 else arith_error p
  | CE_var i ->
      let p = env.(i) in
      if p = unbound then raise (Unsafe_rule "unbound variable in comparison")
      else if p land 1 = 0 then p asr 1
      else arith_error p
  | CE_add (a, b) -> eval_cexpr env a + eval_cexpr env b
  | CE_sub (a, b) -> eval_cexpr env a - eval_cexpr env b
  | CE_mul (a, b) -> eval_cexpr env a * eval_cexpr env b

(* (In)equality comparisons are permitted on any constants for Eq/Ne
   when both sides are a variable or constant: interning is canonical,
   so packed equality is structural constant equality. *)
let eval_ccmp (env : env) op lhs rhs =
  let as_packed = function
    | CE_packed p -> p
    | CE_var i -> env.(i)
    | _ -> unbound
  in
  match op with
  | (Eq | Ne) when as_packed lhs <> unbound && as_packed rhs <> unbound ->
      let a = as_packed lhs and b = as_packed rhs in
      if op = Eq then a = b else a <> b
  | _ -> (
      let a = eval_cexpr env lhs and b = eval_cexpr env rhs in
      match op with
      | Lt -> a < b
      | Le -> a <= b
      | Gt -> a > b
      | Ge -> a >= b
      | Eq -> a = b
      | Ne -> a <> b)

(* Fill a probe's flat key from the current environment, into a
   caller-owned scratch buffer sized to the probe: a lookup only reads
   the key, so the buffer can be refilled for the next probe without
   ever escaping.  Every [S_var] source is statically guaranteed bound
   here (see [probe]). *)
let probe_key_into (pr : probe) (env : env) (key : int array) =
  for j = 0 to Array.length key - 1 do
    Array.unsafe_set key j
      (match Array.unsafe_get pr.pr_sources j with
      | S_const p -> p
      | S_var i -> Array.unsafe_get env i)
  done

(* All mutable per-evaluation state, allocated once per [eval_rule]
   call: the environment, a trail of bound slots operated as a stack
   (each body frame unwinds to its entry depth — a slot is bound at
   most once along any root-to-leaf path, so [cr_nvars] entries always
   suffice), and one key scratch buffer per body literal.  Rule
   evaluation over large fact bases is allocation-bound; with the
   frame, the per-candidate cost of the join loop allocates nothing. *)
type frame = {
  fr_env : env;
  fr_trail : int array;
  mutable fr_tn : int;  (* trail depth *)
  fr_keys : int array array;  (* per body literal, [||] for non-probes *)
}

(* Resolve the relation an atom refers to, through its generation
   cache. *)
let atom_rel (db : db) (a : compiled_atom) =
  if a.c_gen = db.db_gen then a.c_rel
  else begin
    let r = Hashtbl.find_opt db.db_rels a.c_pred in
    a.c_rel <- r;
    a.c_gen <- db.db_gen;
    r
  end

(* Resolve a probe's index handle against [rel] (the atom's current
   relation), through its cache.  [pr_positions] must be non-empty. *)
let probe_index (rel : Relation.t) (pr : probe) =
  match pr.pr_cache with
  | PC_some (r, idx) when r == rel -> idx
  | _ ->
      let idx = Relation.find_index rel pr.pr_positions in
      pr.pr_cache <- PC_some (rel, idx);
      idx

(* Try to unify [tuple] with [a] under the frame's environment; newly
   bound slots are pushed onto the trail.  On failure the trail is
   unwound to its entry depth; on success the {e caller} unwinds after
   exploring deeper literals.  Returns success. *)
let unify_tuple (a : compiled_atom) (tuple : Relation.tuple) (fr : frame) :
    bool =
  let n = Array.length a.c_args in
  if n <> Array.length tuple then false
  else begin
    let env = fr.fr_env in
    let t0 = fr.fr_tn in
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < n do
      (match Array.unsafe_get a.c_args !k with
      | S_const p -> if p <> Array.unsafe_get tuple !k then ok := false
      | S_var i ->
          let b = Array.unsafe_get env i in
          let tv = Array.unsafe_get tuple !k in
          if b = unbound then begin
            Array.unsafe_set env i tv;
            Array.unsafe_set fr.fr_trail fr.fr_tn i;
            fr.fr_tn <- fr.fr_tn + 1
          end
          else if b <> tv then ok := false);
      incr k
    done;
    if not !ok then
      (* Roll back the bindings made during this failed attempt. *)
      while fr.fr_tn > t0 do
        fr.fr_tn <- fr.fr_tn - 1;
        Array.unsafe_set env (Array.unsafe_get fr.fr_trail fr.fr_tn) unbound
      done;
    !ok
  end

let instantiate (a : compiled_atom) (env : env) : Relation.tuple =
  let n = Array.length a.c_args in
  let out = Array.make n 0 in
  for k = 0 to n - 1 do
    Array.unsafe_set out k
      (match Array.unsafe_get a.c_args k with
      | S_const p -> p
      | S_var i ->
          let p = Array.unsafe_get env i in
          if p = unbound then
            raise (Unsafe_rule "unbound variable at instantiation")
          else p)
  done;
  out

(* Depth-first evaluation of the body from literal [idx]; calls [emit]
   for every satisfying environment.  [delta_at]/[delta_tuples]
   restrict one positive literal to the semi-naive delta; [over]
   overrides the candidate list of one positive literal outright — the
   hook domain-parallel evaluation uses to hand each worker a
   contiguous chunk [(pos, arr, start, len)] of the driving literal's
   candidate array (a range, so the submitter never re-conses
   per-chunk sublists).

   Body evaluation never mutates the database: relations are read
   through the atom caches (a missing relation simply has no tuples)
   and any index a lookup needs is pre-built by the parallel driver, so
   concurrent workers share the structures read-only. *)
let rec eval_from (db : db) (cr : compiled_rule) (fr : frame) ~idx ~delta_at
    ~delta_tuples ~over ~emit =
  if idx >= Array.length cr.cr_body then emit fr.fr_env
  else
    match cr.cr_body.(idx) with
    | C_pos (a, pr) -> (
        let visit tuple =
          let t0 = fr.fr_tn in
          if unify_tuple a tuple fr then begin
            eval_from db cr fr ~idx:(idx + 1) ~delta_at ~delta_tuples ~over
              ~emit;
            while fr.fr_tn > t0 do
              fr.fr_tn <- fr.fr_tn - 1;
              fr.fr_env.(fr.fr_trail.(fr.fr_tn)) <- unbound
            done
          end
        in
        match over with
        | Some (o, arr, start, len) when o = idx ->
            for i = start to start + len - 1 do
              visit arr.(i)
            done
        | _ -> (
            match delta_at with
            | Some d when d = idx -> List.iter visit delta_tuples
            | _ -> (
                match atom_rel db a with
                | None -> ()
                | Some rel -> (
                    match pr.pr_positions with
                    | [] ->
                        (* Full scan straight off the insertion log —
                           same element order as [to_list]/[to_array]
                           (so sequential and chunked parallel
                           evaluation still agree), without
                           materializing a list per occurrence. *)
                        Relation.iter rel visit
                    | _ ->
                        let key = fr.fr_keys.(idx) in
                        probe_key_into pr fr.fr_env key;
                        List.iter visit
                          (Relation.probe (probe_index rel pr) key)))))
    | C_neg a ->
        let present =
          match atom_rel db a with
          | Some rel -> Relation.mem rel (instantiate a fr.fr_env)
          | None -> false
        in
        if not present then
          eval_from db cr fr ~idx:(idx + 1) ~delta_at ~delta_tuples ~over ~emit
    | C_cmp (op, lhs, rhs) ->
        if eval_ccmp fr.fr_env op lhs rhs then
          eval_from db cr fr ~idx:(idx + 1) ~delta_at ~delta_tuples ~over ~emit

let make_frame (cr : compiled_rule) : frame =
  {
    fr_env = Array.make (max 1 cr.cr_nvars) unbound;
    fr_trail = Array.make (max 1 cr.cr_nvars) 0;
    fr_tn = 0;
    fr_keys =
      Array.map
        (function
          | C_pos (_, pr) -> Array.make (Array.length pr.pr_sources) 0
          | _ -> [||])
        cr.cr_body;
  }

(* Evaluate a compiled rule, calling [on_derived] with each (possibly
   duplicate) head tuple. *)
let eval_rule (db : db) (cr : compiled_rule) ~delta_at ~delta_tuples
    ~on_derived =
  let fr = make_frame cr in
  eval_from db cr fr ~idx:0 ~delta_at ~delta_tuples ~over:None
    ~emit:(fun env -> on_derived (instantiate cr.cr_head env))

(* Worker-side evaluation of one partition: collect the head tuples in
   derivation order instead of inserting them — the submitter merges
   partitions in submission order, so concatenating the per-partition
   lists reproduces the exact sequential derivation sequence.

   Duplicates within the partition are dropped on the worker, keeping
   each tuple's {e first} derivation.  That moves dedup work off the
   serial merge without changing the result: sequentially a tuple is
   inserted at its first derivation and later duplicates are no-ops,
   and since partitions merge in submission order, the first surviving
   occurrence lands at exactly the sequential insertion position.
   (Cross-partition duplicates still exist; [Relation.add] in the
   merge handles those as before.) *)
let eval_rule_partition (db : db) (cr : compiled_rule) ~delta_at ~delta_tuples
    ~over : Relation.tuple list =
  let fr = make_frame cr in
  let out = ref [] in
  let seen = Relation.Ktbl.create 64 in
  eval_from db cr fr ~idx:0 ~delta_at ~delta_tuples ~over ~emit:(fun env ->
      let tuple = instantiate cr.cr_head env in
      if not (Relation.Ktbl.mem seen tuple) then begin
        Relation.Ktbl.replace seen tuple ();
        out := tuple :: !out
      end);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                            *)

type stats = {
  mutable rules_evaluated : int;
  mutable iterations : int;
  mutable tuples_derived : int;
}

(* Fact bases in the hundreds of thousands of tuples are strongly
   allocation-bound: the default 256K-word minor heap forces constant
   promotions of short-lived substitution lists while the relation
   store keeps a large live set.  A bigger minor heap and a laxer
   space/time trade-off roughly halve evaluation time at the paper's
   full scale. *)
let gc_tuned = ref false

let recommended_gc_setup () =
  if not !gc_tuned then begin
    gc_tuned := true;
    let params = Gc.get () in
    Gc.set
      {
        params with
        Gc.minor_heap_size = max params.Gc.minor_heap_size (8 * 1024 * 1024);
        space_overhead = max params.Gc.space_overhead 200;
      }
  end

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)

(* Observability context of a plan: the instruments every evaluation
   records into, resolved once by {!prepare}.  The per-rule histograms
   live in the compiled rules ([cr_seconds]) and the per-stratum ones in
   the stratum plans, so an evaluation looks nothing up; with the
   registry disabled it makes no timing calls at all. *)
type engine_obs = {
  eo_reg : Metrics.t;
  eo_live : bool;
  eo_strata_skipped : Metrics.Counter.t;
  eo_strata_seminaive : Metrics.Counter.t;
  eo_strata_recomputed : Metrics.Counter.t;
  eo_retractions : Metrics.Counter.t;
  eo_tuples : Metrics.Counter.t;
  eo_delta : Metrics.Histogram.t;
  eo_par_tasks : Metrics.Counter.t;
}

(* Rules are labelled by position so the label sorts in program order
   and survives predicates with several rules: "07:cctx_deposit". *)
let rule_label i (r : rule) = Printf.sprintf "%02d:%s" i r.head.pred

let make_obs reg =
  {
    eo_reg = reg;
    eo_live = Metrics.enabled reg;
    eo_strata_skipped = Metrics.counter reg "xcw_datalog_strata_skipped_total";
    eo_strata_seminaive =
      Metrics.counter reg "xcw_datalog_strata_seminaive_total";
    eo_strata_recomputed =
      Metrics.counter reg "xcw_datalog_strata_recomputed_total";
    eo_retractions = Metrics.counter reg "xcw_datalog_retractions_total";
    eo_tuples = Metrics.counter reg "xcw_datalog_tuples_derived_total";
    eo_delta = Metrics.histogram reg "xcw_datalog_delta_tuples";
    eo_par_tasks = Metrics.counter reg "xcw_datalog_parallel_tasks_total";
  }

(* One stratum, as {!prepare} leaves it: its rules compiled, and the
   predicates it derives, reads positively and reads under negation —
   all an incremental run needs to decide between skipping, semi-naive
   insertion and recomputation. *)
type stratum_plan = {
  sp_label : string;  (* its position in the plan, as a metric label *)
  sp_recursive : bool;
  sp_compiled : compiled_rule list;
  sp_heads : string list;  (* sorted, unique *)
  sp_pos : string list;  (* read positively; unique *)
  sp_neg : string list;  (* read under negation; unique *)
  sp_seconds : Metrics.Histogram.t;  (* [xcw_datalog_stratum_seconds] *)
}

(* Time one stratum into its labelled histogram and a span on the
   default tracer; a no-op (beyond running [f]) when metrics are off. *)
let with_stratum obs sp ~mode f =
  if not obs.eo_live then f ()
  else begin
    let attrs =
      [
        ("stratum", sp.sp_label);
        ("recursive", string_of_bool sp.sp_recursive);
        ("mode", mode);
      ]
    in
    Span.with_ ~attrs "datalog.stratum" (fun () ->
        let t0 = Unix.gettimeofday () in
        let r = f () in
        Metrics.Histogram.observe sp.sp_seconds (Unix.gettimeofday () -. t0);
        r)
  end

(* One (rule, delta-occurrence) evaluation job: [oc_delta_at] restricts
   that positive body literal to [oc_delta_tuples]; [None] evaluates
   the rule over the whole database. *)
type occurrence = {
  oc_cr : compiled_rule;
  oc_delta_at : int option;
  oc_delta_tuples : Relation.tuple list;
}

(* Insert the head tuples that [produce] feeds to its argument: each
   new one counts as derived, joins [pred]'s entry in the round's
   delta table [tbl] and fires [on_new].  The relation and the delta
   entry are resolved once per call, not once per tuple — at paper
   scale a rule can derive hundreds of thousands of tuples, and three
   string-keyed hash lookups per tuple show up.  The relation is
   resolved at the {e first} derivation, not eagerly: creating it for
   a rule that derives nothing would add a spurious empty relation to
   the database (visible in [dump_facts]). *)
let insert_heads (db : db) (stats : stats) tbl ~on_new pred produce =
  let rel = ref None in
  let acc = ref (Option.value (Hashtbl.find_opt tbl pred) ~default:[]) in
  let acc0 = !acc in
  produce (fun tuple ->
      let r =
        match !rel with
        | Some r -> r
        | None ->
            let r = relation db pred in
            rel := Some r;
            r
      in
      if Relation.add r tuple then begin
        stats.tuples_derived <- stats.tuples_derived + 1;
        acc := tuple :: !acc;
        on_new pred tuple
      end);
  if not (!acc == acc0) then Hashtbl.replace tbl pred !acc

(* The one-domain pass: the occurrences run in turn, each inserting as
   it derives. *)
let eval_pass_inline (db : db) (stats : stats) ~obs ~on_new tbl occurrences =
  List.iter
    (fun oc ->
      stats.rules_evaluated <- stats.rules_evaluated + 1;
      let t0 = if obs.eo_live then Unix.gettimeofday () else 0. in
      insert_heads db stats tbl ~on_new oc.oc_cr.cr_head.c_pred (fun insert ->
          eval_rule db oc.oc_cr ~delta_at:oc.oc_delta_at
            ~delta_tuples:oc.oc_delta_tuples ~on_derived:insert);
      if obs.eo_live then
        Metrics.Histogram.observe oc.oc_cr.cr_seconds (Unix.gettimeofday () -. t0))
    occurrences

(* ------------------------------------------------------------------ *)
(* Domain-parallel stratum evaluation                                  *)

(* Partitioning scheme: within a pass, each (rule, delta-occurrence)
   job splits the candidate list of its {e driving literal} — the first
   positive body literal, the outermost loop of the backtracking join —
   into contiguous chunks (several per domain).  Workers evaluate chunks against
   the shared relations read-only (every index a chunk can touch is
   pre-built below; head insertions are deferred), and the submitter
   merges the per-chunk derivation lists in submission order.

   Determinism argument: for a non-recursive stratum the body
   predicates are all fully materialized by earlier strata, so chunk
   evaluation is a pure function of the frozen database and
   concatenating chunk outputs in order is {e exactly} the sequential
   derivation sequence; first-come deduplication at merge time then
   reproduces the sequential insertion order bit-for-bit, for any
   worker count.  In a recursive stratum, workers read the state the
   round started from, while the inline pass inserts as it derives;
   both reach the same fixpoint — the same tuple sets and derived-tuple
   counts — but may order insertions differently.  The shipped
   cross-chain program is fully non-recursive. *)

(* The index position-list each body lookup uses is already compiled
   into its probe ([compile_rule] tracks bound slots left-to-right), so
   pre-building just walks the compiled bodies. *)

(* Pre-build every index the stratum's lookups can touch, fanning the
   work out over the pool — empty index tables are registered
   sequentially here (a single thread owns each relation's index map)
   and the fills run as independent tasks, so no two tasks share
   mutable state and a relation needing several indices doesn't
   serialize them into one long task.  Small indices are one task
   each; a large index splits into key-projection range tasks followed
   by one insert task per shard (the phase barrier between the two
   batches is what lets the shard inserts read every scratch key).
   Index contents are a pure function of the relation, so build order
   is irrelevant; the pool's batch synchronization publishes the
   writes to all workers before evaluation starts. *)
let prepare_indices (db : db) ~pool compiled =
  let seen : (string * int list, unit) Hashtbl.t = Hashtbl.create 16 in
  let phase_a = ref [] in
  let phase_b = ref [] in
  let k = max 1 (Pool.ndomains pool) in
  List.iter
    (fun cr ->
      Array.iter
        (function
          | C_pos (a, pr) when pr.pr_positions <> [] ->
              let positions = pr.pr_positions in
              if not (Hashtbl.mem seen (a.c_pred, positions)) then begin
                Hashtbl.add seen (a.c_pred, positions) ();
                match Hashtbl.find_opt db.db_rels a.c_pred with
                | Some rel -> (
                    match Relation.prepare_index rel positions with
                    | Some (`Fill fill) -> phase_a := fill :: !phase_a
                    | Some (`Sharded (n, keys_range, insert_shard)) ->
                        let chunk = max 2048 ((n + (4 * k) - 1) / (4 * k)) in
                        let lo = ref 0 in
                        while !lo < n do
                          let lo' = !lo in
                          let hi = min n (lo' + chunk) in
                          phase_a := (fun () -> keys_range lo' hi) :: !phase_a;
                          lo := hi
                        done;
                        for s = 0 to Relation.nshards - 1 do
                          phase_b := (fun () -> insert_shard s) :: !phase_b
                        done
                    | None -> ())
                | None -> ()
              end
          | _ -> ())
        cr.cr_body)
    compiled;
  ignore (Pool.run pool !phase_a);
  ignore (Pool.run pool !phase_b)

(* Resolve every body atom's relation handle and every probe's index
   handle on the submitting domain, so worker domains only ever {e
   read} the compiled-rule caches during a fan-out: after this sweep
   each cache check hits (nothing creates relations or replaces
   indices mid-pass), so no worker writes them.  This also covers
   relations created {e after} stratum start — head predicates of
   recursive strata — whose indices [prepare_indices] could not have
   seen: [probe_index] builds them here, single-threaded, instead of
   workers racing through a lazy [ensure_index]. *)
let resolve_caches (db : db) (crs : compiled_rule list) =
  List.iter
    (fun cr ->
      Array.iter
        (function
          | C_pos (a, pr) -> (
              match atom_rel db a with
              | None -> ()
              | Some rel ->
                  if pr.pr_positions <> [] then ignore (probe_index rel pr))
          | C_neg a -> ignore (atom_rel db a)
          | C_cmp _ -> ())
        cr.cr_body)
    crs

let first_pos (cr : compiled_rule) =
  let n = Array.length cr.cr_body in
  let rec go i =
    if i >= n then None
    else match cr.cr_body.(i) with C_pos _ -> Some i | _ -> go (i + 1)
  in
  go 0

(* The driving literal's candidates are materialized once as an array
   and chunked as contiguous index ranges — no per-chunk sublists to
   cons on the submitter.  Range boundaries never affect the result:
   the merge concatenates chunk outputs in submission order. *)
let occurrence_chunks (db : db) ~k (oc : occurrence) :
    (int * Relation.tuple array * int * int) option list =
  let cr = oc.oc_cr in
  match first_pos cr with
  | None -> [ None ]
  | Some p ->
      let candidates =
        match oc.oc_delta_at with
        | Some d when d = p -> Array.of_list oc.oc_delta_tuples
        | _ -> (
            match cr.cr_body.(p) with
            | C_pos (a, pr) -> (
                match Hashtbl.find_opt db.db_rels a.c_pred with
                | None -> [||]
                | Some rel -> (
                    match pr.pr_positions with
                    | [] -> Relation.to_array rel
                    | positions ->
                        (* The driving literal is the first positive
                           one, so its probe template holds constants
                           only — the dummy env is never read. *)
                        let env : env = Array.make (max 1 cr.cr_nvars) unbound in
                        let key = Array.make (List.length positions) 0 in
                        probe_key_into pr env key;
                        Array.of_list (Relation.lookup rel positions key)))
            | _ -> assert false)
      in
      let n = Array.length candidates in
      if n = 0 then []
      else begin
        (* ~[k] chunks for balance, but never more than 64 candidates
           per chunk: a rule's matches can cluster brutally in one
           candidate range (observed: one of 32 chunks carrying 89% of
           a batch's work), and a capped chunk bounds how much of a hot
           range the unluckiest worker inherits. *)
        let size = max 1 (min ((n + k - 1) / k) 64) in
        let rec go start acc =
          if start >= n then List.rev acc
          else
            let len = min size (n - start) in
            go (start + len) (Some (p, candidates, start, len) :: acc)
        in
        go 0 []
      end

(* The pool pass: fan every occurrence's chunks out, then merge the
   derivations back in submission order through [insert_heads]. *)
let eval_pass_parallel (db : db) (stats : stats) ~obs ~pool ~fanout_gauge
    ~on_new tbl occurrences =
  (* Many chunks per domain: the pool's dynamic claiming then evens
     out skewed chunk costs (rules whose matches cluster in one part of
     the candidate list — common here, where a handful of join-heavy
     rules dominate a stratum), at a per-chunk cost of two timestamps
     and a result slot.  Chunk count never affects the result — the
     merge concatenates chunk outputs in submission order regardless. *)
  let k = 16 * Pool.ndomains pool in
  resolve_caches db (List.map (fun oc -> oc.oc_cr) occurrences);
  let jobs =
    List.map
      (fun oc ->
        stats.rules_evaluated <- stats.rules_evaluated + 1;
        (oc, occurrence_chunks db ~k oc))
      occurrences
  in
  let thunks =
    List.concat_map
      (fun (oc, chunks) ->
        List.map
          (fun over () ->
            let t0 = if obs.eo_live then Unix.gettimeofday () else 0. in
            let out =
              eval_rule_partition db oc.oc_cr ~delta_at:oc.oc_delta_at
                ~delta_tuples:oc.oc_delta_tuples ~over
            in
            ((if obs.eo_live then Unix.gettimeofday () -. t0 else 0.), out))
          chunks)
      jobs
  in
  let ntasks = List.length thunks in
  Metrics.Counter.add obs.eo_par_tasks ntasks;
  Metrics.Gauge.set fanout_gauge (float_of_int ntasks);
  let results = ref (Pool.run pool thunks) in
  List.iter
    (fun (oc, chunks) ->
      (* Per-rule histograms get each occurrence's summed chunk busy
         time: one sample per occurrence, as in the inline pass. *)
      let busy = ref 0. in
      insert_heads db stats tbl ~on_new oc.oc_cr.cr_head.c_pred (fun insert ->
          List.iter
            (fun _ ->
              match !results with
              | (dt, out) :: rest ->
                  results := rest;
                  busy := !busy +. dt;
                  List.iter insert out
              | [] -> assert false)
            chunks);
      if obs.eo_live then Metrics.Histogram.observe oc.oc_cr.cr_seconds !busy)
    jobs

(* Evaluate one stratum to fixpoint, one semi-naive round at a time;
   each round's occurrence list goes to one pass — inline on one
   domain, fanned out over [pool] otherwise.  [seed] sets round 0:
   [`Full] evaluates every rule over the whole database (from-scratch
   semantics); [`Deltas fresh] evaluates only body occurrences of
   predicates present in [fresh], restricted to those fresh tuples —
   semi-naive insertion, sound when the stratum is monotone w.r.t. the
   changed predicates.  Every new derivable tuple uses a fresh tuple at
   some body position, and each occurrence joins against the (already
   updated) full database elsewhere, so together they cover every new
   combination; duplicates collapse in [Relation.add].  Each later
   round restricts the occurrences to the previous round's additions,
   which are all same-stratum heads (or, [naive], runs every rule in
   full), until a round adds nothing.  A non-recursive stratum is
   complete after round 0: its body predicates all live in earlier
   strata.  [on_new] fires for every tuple actually added. *)
let eval_stratum (db : db) (stats : stats) ~naive ~obs ~pool sp
    ~(seed : [ `Full | `Deltas of (string, Relation.tuple list) Hashtbl.t ])
    ~on_new =
  let compiled = sp.sp_compiled in
  let pass =
    match pool with
    | None -> eval_pass_inline db stats ~obs ~on_new
    | Some pool ->
        prepare_indices db ~pool compiled;
        let fanout_gauge =
          Metrics.gauge obs.eo_reg
            ~labels:[ ("stratum", sp.sp_label) ]
            "xcw_datalog_parallel_fanout"
        in
        eval_pass_parallel db stats ~obs ~pool ~fanout_gauge ~on_new
  in
  let full () =
    List.map
      (fun cr -> { oc_cr = cr; oc_delta_at = None; oc_delta_tuples = [] })
      compiled
  in
  (* Rule-major, body position ascending. *)
  let deltas tbl =
    List.concat_map
      (fun cr ->
        List.filter_map
          (fun idx ->
            match cr.cr_body.(idx) with
            | C_pos (a, _) -> (
                match Hashtbl.find_opt tbl a.c_pred with
                | Some (_ :: _ as dts) ->
                    Some { oc_cr = cr; oc_delta_at = Some idx; oc_delta_tuples = dts }
                | _ -> None)
            | _ -> None)
          (List.init (Array.length cr.cr_body) Fun.id))
      compiled
  in
  let rec rounds occurrences =
    stats.iterations <- stats.iterations + 1;
    let added = Hashtbl.create 8 in
    pass added occurrences;
    if sp.sp_recursive && Hashtbl.length added > 0 then
      rounds (if naive then full () else deltas added)
  in
  rounds (match seed with `Full -> full () | `Deltas fresh -> deltas fresh)

let mark_derived (db : db) sp =
  List.iter (fun p -> Hashtbl.replace db.db_derived p ()) sp.sp_heads

(* ------------------------------------------------------------------ *)
(* Stratified aggregation (PR 10).

   A declared aggregate materializes a grouped integer sum over one EDB
   relation into a derived predicate, before any rule stratum runs —
   the aggregate heads are therefore plain EDB from the rules' point of
   view (they may be joined or negated freely), and stratification is
   trivially sound because aggregate sources can never depend on rule
   output.  Computation is sequential and key-sorted, so the derived
   relation is bit-identical across worker counts and across the
   scratch/incremental paths. *)

type aggregate = {
  agg_pred : string;
  agg_source : string;
  agg_group_by : int list;
  agg_sum : int;
}

let check_aggregates (program : program) (aggregates : aggregate list) =
  let heads =
    List.sort_uniq compare
      (List.map (fun (r : rule) -> r.head.pred) program.rules)
  in
  List.iter
    (fun a ->
      let fail fmt =
        Printf.ksprintf
          (fun s -> invalid_arg ("Engine: aggregate " ^ a.agg_pred ^ ": " ^ s))
          fmt
      in
      if List.mem a.agg_pred heads then fail "head is also a rule head";
      if List.mem a.agg_source heads then
        fail "source %s is a rule head (sources must be EDB)" a.agg_source;
      if List.exists (fun a' -> a'.agg_pred = a.agg_source) aggregates then
        fail "source %s is another aggregate's head" a.agg_source;
      if List.exists (fun a' -> a' != a && a'.agg_pred = a.agg_pred) aggregates
      then fail "declared twice";
      if a.agg_sum < 0 || List.exists (fun p -> p < 0) a.agg_group_by then
        fail "negative tuple position")
    aggregates

(* The grouped sums of the source relation, as packed tuples
   [group cells..., sum] in ascending key order. *)
let aggregate_tuples (db : db) (agg : aggregate) : Relation.tuple list =
  let positions = Array.of_list agg.agg_group_by in
  let groups : (int array, int) Hashtbl.t = Hashtbl.create 64 in
  Relation.iter (relation db agg.agg_source) (fun t ->
      let width = Array.length t in
      if
        agg.agg_sum >= width
        || Array.exists (fun p -> p >= width) positions
      then
        invalid_arg
          (Printf.sprintf
             "Engine: aggregate %s: position beyond %s arity %d" agg.agg_pred
             agg.agg_source width);
      let v =
        match unpack t.(agg.agg_sum) with
        | Int n -> n
        | Str s ->
            invalid_arg
              (Printf.sprintf
                 "Engine: aggregate %s sums non-int cell %S of %s" agg.agg_pred
                 s agg.agg_source)
      in
      let key = Array.map (fun p -> t.(p)) positions in
      let prev = Option.value (Hashtbl.find_opt groups key) ~default:0 in
      Hashtbl.replace groups key (prev + v));
  Hashtbl.fold (fun key total acc -> (key, total) :: acc) groups []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (key, total) ->
         Array.append key [| pack_int total |])

(* Recompute one aggregate relation in place.  [Relation.clear] keeps
   the hash-index structure, so this is the same retraction primitive
   the incremental strata use. *)
let compute_aggregate (db : db) (stats : stats) (agg : aggregate) =
  Hashtbl.replace db.db_derived agg.agg_pred ();
  let rel = relation db agg.agg_pred in
  Relation.clear rel;
  let tuples = aggregate_tuples db agg in
  List.iter (fun t -> ignore (Relation.add rel t)) tuples;
  stats.tuples_derived <- stats.tuples_derived + List.length tuples

let pool_for ndomains =
  if ndomains < 1 then invalid_arg "Engine: ndomains must be >= 1"
  else if ndomains = 1 then None
  else Some (Pool.get ~ndomains)

(* ------------------------------------------------------------------ *)
(* Plans and change sets                                               *)

(* Everything about an evaluation that depends only on the program:
   checked, stratified and compiled once, then run against any number
   of databases (a monitor runs one plan for as long as it lives). *)
type plan = {
  pl_obs : engine_obs;
  pl_aggregates : aggregate list;
  pl_strata : stratum_plan list;  (* dependencies first *)
  pl_evaluated : (string, unit) Hashtbl.t;
      (* what a full run evaluates: the aggregate and rule heads *)
}

let prepare ?metrics ?(aggregates = []) (program : program) : plan =
  let reg = match metrics with Some m -> m | None -> Metrics.default () in
  let obs = make_obs reg in
  (* Keyed by the rule's physical identity, which [stratify]
     preserves. *)
  let rule_seconds =
    List.mapi
      (fun i r ->
        ( r,
          Metrics.histogram reg
            ~labels:[ ("rule", rule_label i r) ]
            "xcw_datalog_rule_seconds" ))
      program.rules
  in
  List.iter check_rule_safety program.rules;
  check_aggregates program aggregates;
  let stratum i (rules, recursive) =
    let label = string_of_int i in
    let body_preds pick =
      List.sort_uniq compare
        (List.concat_map (fun (r : rule) -> List.filter_map pick r.body) rules)
    in
    {
      sp_label = label;
      sp_recursive = recursive;
      sp_compiled =
        List.map
          (fun r -> compile_rule ~seconds:(List.assq r rule_seconds) r)
          rules;
      sp_heads =
        List.sort_uniq compare (List.map (fun (r : rule) -> r.head.pred) rules);
      sp_pos = body_preds (function Pos a -> Some a.pred | _ -> None);
      sp_neg = body_preds (function Neg a -> Some a.pred | _ -> None);
      sp_seconds =
        Metrics.histogram reg
          ~labels:[ ("stratum", label) ]
          "xcw_datalog_stratum_seconds";
    }
  in
  let strata = List.mapi stratum (stratify program.rules) in
  let evaluated = Hashtbl.create 64 in
  List.iter (fun a -> Hashtbl.replace evaluated a.agg_pred ()) aggregates;
  List.iter
    (fun sp -> List.iter (fun p -> Hashtbl.replace evaluated p ()) sp.sp_heads)
    strata;
  {
    pl_obs = obs;
    pl_aggregates = aggregates;
    pl_strata = strata;
    pl_evaluated = evaluated;
  }

(* What one run changed.  An incremental run keeps, per relation, the
   tuples added since the previous run (journaled insertions included)
   and whether any tuple was lost: the [added] and [dirty] tables it
   steers its strata by.  A full run lists nothing — it counts every
   relation it evaluated as changed. *)
type changes =
  | Full of (string, unit) Hashtbl.t  (* [pl_evaluated] *)
  | Delta of {
      added : (string, Relation.tuple list) Hashtbl.t;
      lost : (string, unit) Hashtbl.t;
    }

let full_run = function Full _ -> true | Delta _ -> false

let changed ch pred =
  match ch with
  | Full evaluated -> Hashtbl.mem evaluated pred
  | Delta d -> Hashtbl.mem d.added pred || Hashtbl.mem d.lost pred

let added ch pred =
  match ch with
  | Full _ -> []
  | Delta d -> Option.value (Hashtbl.find_opt d.added pred) ~default:[]

let lost ch pred =
  match ch with
  | Full evaluated -> Hashtbl.mem evaluated pred
  | Delta d -> Hashtbl.mem d.lost pred

let new_stats () = { rules_evaluated = 0; iterations = 0; tuples_derived = 0 }

(* What every run ends with: the journal reset and the derived-tuple
   count. *)
let finish plan (db : db) stats =
  db.db_ran <- true;
  Hashtbl.reset db.db_journal;
  Metrics.Counter.add plan.pl_obs.eo_tuples stats.tuples_derived

let evaluate_full plan ~naive ~pool (db : db) =
  let obs = plan.pl_obs in
  let stats = new_stats () in
  Span.with_ "datalog.run" (fun () ->
      List.iter (compute_aggregate db stats) plan.pl_aggregates;
      List.iter
        (fun sp ->
          mark_derived db sp;
          with_stratum obs sp ~mode:"full" (fun () ->
              eval_stratum db stats ~naive ~obs ~pool sp ~seed:`Full
                ~on_new:(fun _ _ -> ())))
        plan.pl_strata);
  finish plan db stats;
  (stats, Full plan.pl_evaluated)

(** [run ?naive db program] evaluates all rules to fixpoint, stratum by
    stratum, adding derived tuples to [db] in place: {!prepare}, then
    a full run.  [naive] disables semi-naive deltas (used by the
    ablation bench).  [ndomains] above 1 (default 1) evaluates each
    stratum's rounds on a shared domain pool instead of inline.
    Returns evaluation statistics. *)
let run ?(naive = false) ?metrics ?(ndomains = 1) ?aggregates (db : db)
    (program : program) : stats =
  let pool = pool_for ndomains in
  fst (evaluate_full (prepare ?metrics ?aggregates program) ~naive ~pool db)

(** [run_incremental plan db] brings a previously evaluated [db] up to
    date after EDB insertions, treating the journaled fresh tuples as
    the initial semi-naive delta.  Per stratum (in dependency order):

    - no input predicate changed → the stratum is skipped outright, its
      derived tuples standing from the previous run;
    - inputs changed only through predicates the stratum uses
      positively → semi-naive insertion seeded with the fresh tuples
      (old derived tuples are kept, only new joins run);
    - a changed predicate occurs under negation (or an upstream
      predicate lost a tuple) → the stratum's derived relations are
      cleared ({!Relation.clear} preserves their hash-index structure)
      and re-derived from scratch over the current database — the
      retraction path for the non-monotonic anomaly relations.

    EDB relations and their indices are never rebuilt.  [plan] must be
    the plan [db] was evaluated with before; the first call on a fresh
    database is a full run. *)
let run_incremental ?(ndomains = 1) plan (db : db) : stats * changes =
  let pool = pool_for ndomains in
  if not db.db_ran then evaluate_full plan ~naive:false ~pool db
  else begin
    let obs = plan.pl_obs in
    let stats = new_stats () in
    (* Tuples added per predicate since the last run: journaled EDB
       insertions plus everything derived by earlier strata below. *)
    let added : (string, Relation.tuple list) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.iter
      (fun pred l -> if !l <> [] then Hashtbl.replace added pred !l)
      db.db_journal;
    if obs.eo_live then
      Metrics.Histogram.observe obs.eo_delta
        (float_of_int
           (Hashtbl.fold (fun _ l acc -> acc + List.length l) added 0));
    (* Predicates that lost a tuple: downstream consumers cannot use
       insertion-only deltas. *)
    let dirty : (string, unit) Hashtbl.t = Hashtbl.create 8 in
    let changed p = Hashtbl.mem added p || Hashtbl.mem dirty p in
    let record_added pred tuple =
      let prev = Option.value (Hashtbl.find_opt added pred) ~default:[] in
      Hashtbl.replace added pred (tuple :: prev)
    in
    (* Recompute [preds] in place with [recompute] and diff each against
       its tuples before: a tuple that vanished is a retraction and
       marks the predicate dirty, so downstream strata take the
       recompute path; a tuple that appeared is recorded as added, so
       that [added] and [dirty] together are the exact diff.  Sizes
       tell whether anything appeared at all: most recomputations
       re-derive the same set, and then no set of the old tuples is
       built. *)
    let recompute_and_diff preds recompute =
      let before =
        List.map (fun p -> (p, Relation.to_array (relation db p))) preds
      in
      recompute ();
      List.iter
        (fun (p, old) ->
          let rel = relation db p in
          let retracted =
            Array.fold_left
              (fun n t -> if Relation.mem rel t then n else n + 1)
              0 old
          in
          Metrics.Counter.add obs.eo_retractions retracted;
          if retracted > 0 then Hashtbl.replace dirty p ();
          if Relation.size rel > Array.length old - retracted then begin
            let old_set = Relation.Ktbl.create (Array.length old) in
            Array.iter (fun t -> Relation.Ktbl.replace old_set t ()) old;
            Relation.iter rel (fun t ->
                if not (Relation.Ktbl.mem old_set t) then record_added p t)
          end)
        before
    in
    (* Aggregates first: their sources are EDB, so journaled source
       tuples are the only way an aggregate can change. *)
    List.iter
      (fun agg ->
        if Hashtbl.mem added agg.agg_source then
          recompute_and_diff [ agg.agg_pred ] (fun () ->
              compute_aggregate db stats agg))
      plan.pl_aggregates;
    Span.with_ "datalog.run_incremental" (fun () ->
        List.iter
          (fun sp ->
            mark_derived db sp;
            let pos_added = List.exists (Hashtbl.mem added) sp.sp_pos in
            let non_monotonic =
              List.exists (Hashtbl.mem dirty) sp.sp_pos
              || List.exists changed sp.sp_neg
            in
            (* EDB tuples journaled directly into a derived predicate
               must survive the clear; force the recompute path and
               re-insert them. *)
            let head_journal =
              List.filter_map
                (fun p ->
                  match Hashtbl.find_opt db.db_journal p with
                  | Some l when !l <> [] -> Some (p, !l)
                  | _ -> None)
                sp.sp_heads
            in
            let eval ~seed ~on_new =
              eval_stratum db stats ~naive:false ~obs ~pool sp ~seed ~on_new
            in
            if non_monotonic || head_journal <> [] then begin
              (* Retraction path: clear and re-derive the whole stratum. *)
              Metrics.Counter.inc obs.eo_strata_recomputed;
              with_stratum obs sp ~mode:"recompute" (fun () ->
                  recompute_and_diff sp.sp_heads (fun () ->
                      List.iter
                        (fun p ->
                          let rel = relation db p in
                          Relation.clear rel;
                          List.iter
                            (fun t -> ignore (Relation.add rel t))
                            (Option.value (List.assoc_opt p head_journal)
                               ~default:[]))
                        sp.sp_heads;
                      eval ~seed:`Full ~on_new:(fun _ _ -> ())))
            end
            else if pos_added then begin
              (* Monotone path: keep the old derived tuples and seed
                 semi-naive evaluation with the fresh input tuples. *)
              Metrics.Counter.inc obs.eo_strata_seminaive;
              with_stratum obs sp ~mode:"seminaive" (fun () ->
                  eval ~seed:(`Deltas added) ~on_new:record_added)
            end
            else
              (* No input changed — skip the stratum entirely. *)
              Metrics.Counter.inc obs.eo_strata_skipped)
          plan.pl_strata);
    finish plan db stats;
    (stats, Delta { added; lost = dirty })
  end
