type t = {
  mutable sm_of_proc : int array;
      (* process intern id -> store id; -1 = unassigned *)
  mutable sm_back : int array; (* store id -> process packed cell *)
  mutable sm_strs : string array; (* store id -> string, for snapshots *)
  mutable sm_n : int;
  mutable sm_fresh_rev : string list;
}

let create () =
  {
    sm_of_proc = Array.make 64 (-1);
    sm_back = Array.make 64 0;
    sm_strs = Array.make 64 "";
    sm_n = 0;
    sm_fresh_rev = [];
  }

let grow t =
  if t.sm_n = Array.length t.sm_back then begin
    let cap = 2 * Array.length t.sm_back in
    let back = Array.make cap 0 and strs = Array.make cap "" in
    Array.blit t.sm_back 0 back 0 t.sm_n;
    Array.blit t.sm_strs 0 strs 0 t.sm_n;
    t.sm_back <- back;
    t.sm_strs <- strs
  end

let assign t s packed ~fresh =
  grow t;
  let id = t.sm_n in
  let proc = packed lsr 1 in
  if proc >= Array.length t.sm_of_proc then begin
    let of_proc =
      Array.make (max (proc + 1) (2 * Array.length t.sm_of_proc)) (-1)
    in
    Array.blit t.sm_of_proc 0 of_proc 0 (Array.length t.sm_of_proc);
    t.sm_of_proc <- of_proc
  end;
  t.sm_of_proc.(proc) <- id;
  t.sm_back.(id) <- packed;
  t.sm_strs.(id) <- s;
  t.sm_n <- id + 1;
  if fresh then t.sm_fresh_rev <- s :: t.sm_fresh_rev;
  id

let encode_cell t packed =
  if Xcw_datalog.Ast.packed_is_int packed then packed
  else
    let proc = packed lsr 1 in
    let id =
      if proc < Array.length t.sm_of_proc then t.sm_of_proc.(proc) else -1
    in
    let id =
      if id >= 0 then id
      else
        assign t
          (Xcw_datalog.Ast.packed_to_string packed)
          packed ~fresh:true
    in
    (id lsl 1) lor 1

let decode_cell t stored =
  if stored land 1 = 0 then stored
  else
    let id = stored lsr 1 in
    if id >= t.sm_n then
      raise (Codec.R.Corrupt (Printf.sprintf "symbol id %d out of range" id))
    else t.sm_back.(id)

let register t s =
  ignore (assign t s (Xcw_datalog.Ast.pack_string s) ~fresh:false)

let take_fresh t =
  let fresh = List.rev t.sm_fresh_rev in
  t.sm_fresh_rev <- [];
  fresh

let size t = t.sm_n
let dump t = Array.to_list (Array.sub t.sm_strs 0 t.sm_n)
