(* Every choice here is the simplest correct one, so the module can be
   checked by reading it: relations are hash sets of [const list]
   tuples, a body is matched literal by literal, left to right, by
   scanning whole relations, and each stratum re-runs all of its rules
   until a pass adds nothing. *)

open Ast

type db = (string, (const list, unit) Hashtbl.t) Hashtbl.t

let create_db () : db = Hashtbl.create 64

let relation (db : db) pred =
  match Hashtbl.find_opt db pred with
  | Some r -> r
  | None ->
      let r = Hashtbl.create 64 in
      Hashtbl.replace db pred r;
      r

(* Adds [tuple] to [pred]; true if it was not there yet. *)
let insert db pred tuple =
  let r = relation db pred in
  let fresh = not (Hashtbl.mem r tuple) in
  if fresh then Hashtbl.replace r tuple ();
  fresh

let add_fact db pred tuple = ignore (insert db pred tuple)

let facts db pred =
  List.sort compare (Hashtbl.fold (fun t () acc -> t :: acc) (relation db pred) [])

(* Extends the environment (variable name to constant) so that [args]
   match [tuple], or fails. *)
let rec unify env args tuple =
  match (args, tuple) with
  | [], [] -> Some env
  | Const c :: args, c' :: tuple -> if c = c' then unify env args tuple else None
  | Var x :: args, c :: tuple -> (
      match List.assoc_opt x env with
      | None -> unify ((x, c) :: env) args tuple
      | Some c' -> if c = c' then unify env args tuple else None)
  | _ -> None

let ground env args =
  List.map (function Const c -> c | Var x -> List.assoc x env) args

(* Comparisons follow the engine: [=] and [!=] between two plain terms
   compare constants of any kind; everything else is integer
   arithmetic, and a string there is an error. *)
let rec int_of env e =
  let value = function
    | Int n -> n
    | Str s -> invalid_arg (Printf.sprintf "Naive: string %S in arithmetic" s)
  in
  match e with
  | E_const c -> value c
  | E_var x -> value (List.assoc x env)
  | E_add (a, b) -> int_of env a + int_of env b
  | E_sub (a, b) -> int_of env a - int_of env b
  | E_mul (a, b) -> int_of env a * int_of env b

let holds env op a b =
  let plain = function
    | E_const c -> Some c
    | E_var x -> Some (List.assoc x env)
    | _ -> None
  in
  let c =
    match (op, plain a, plain b) with
    | (Eq | Ne), Some x, Some y -> compare x y
    | _ -> compare (int_of env a) (int_of env b)
  in
  match op with
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0
  | Eq -> c = 0
  | Ne -> c <> 0

(* Every environment satisfying [body] over the current [db]. *)
let matches db body =
  List.fold_left
    (fun envs lit ->
      List.concat_map
        (fun env ->
          match lit with
          | Pos a ->
              Hashtbl.fold
                (fun t () acc ->
                  match unify env a.args t with Some e -> e :: acc | None -> acc)
                (relation db a.pred) []
          | Neg a ->
              if Hashtbl.mem (relation db a.pred) (ground env a.args) then []
              else [ env ]
          | Cmp (op, l, r) -> if holds env op l r then [ env ] else [])
        envs)
    [ [] ] body

(* Rule groups in evaluation order.  A head's rank is at least the rank
   of every head it uses and above the rank of every head it negates.
   Ranks settle within one round per head unless negation sits inside
   a cycle, which then leaves some rule unsettled. *)
let strata rules =
  let heads = List.sort_uniq compare (List.map (fun r -> r.head.pred) rules) in
  let rank = Hashtbl.create 16 in
  let get p = Option.value (Hashtbl.find_opt rank p) ~default:0 in
  let need = function
    | Pos a when List.mem a.pred heads -> get a.pred
    | Neg a when List.mem a.pred heads -> get a.pred + 1
    | _ -> 0
  in
  let settle r =
    Hashtbl.replace rank r.head.pred
      (List.fold_left (fun k l -> max k (need l)) (get r.head.pred) r.body)
  in
  List.iter (fun _ -> List.iter settle rules) heads;
  if List.exists (fun r -> List.exists (fun l -> need l > get r.head.pred) r.body) rules
  then invalid_arg "Naive: negation inside a recursive cycle";
  let top = List.fold_left (fun m p -> max m (get p)) 0 heads in
  List.init (top + 1) (fun k -> List.filter (fun r -> get r.head.pred = k) rules)

(* One grouped sum: [(group cells..., Int total)] per distinct group. *)
let aggregate add db (a : Engine.aggregate) =
  let sums = Hashtbl.create 16 in
  Hashtbl.iter
    (fun t () ->
      let key = List.map (List.nth t) a.agg_group_by in
      let v =
        match List.nth t a.agg_sum with
        | Int n -> n
        | Str s -> invalid_arg (Printf.sprintf "Naive: summing string %S" s)
      in
      let prev = Option.value (Hashtbl.find_opt sums key) ~default:0 in
      Hashtbl.replace sums key (prev + v))
    (relation db a.agg_source);
  Hashtbl.iter (fun key total -> add a.agg_pred (key @ [ Int total ])) sums

let run ?(aggregates = []) db (program : program) =
  let derived = ref 0 in
  let add pred tuple = if insert db pred tuple then incr derived in
  List.iter (aggregate add db) aggregates;
  List.iter
    (fun rules ->
      let before = ref (-1) in
      while !before <> !derived do
        before := !derived;
        List.iter
          (fun r ->
            List.iter
              (fun env -> add r.head.pred (ground env r.head.args))
              (matches db r.body))
          rules
      done)
    (strata program.rules);
  !derived
