(* Slicing-by-8 tables over native ints: [tables.(k * 256 + b)] is the
   CRC register after byte [b] followed by [k] zero bytes, so one step
   folds 8 input bytes with 8 independent lookups. *)
let tables =
  lazy
    (let t = Array.make 2048 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for i = 256 to 2047 do
       let prev = t.(i - 256) in
       t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
     done;
     t)

(* Advance the (pre-inverted) CRC register [c] over [s.[off, off+len)]:
   8 bytes per step as two little-endian words, then byte by byte. *)
let update t c s off len =
  let word p = Int32.to_int (String.get_int32_le s p) land 0xFFFFFFFF in
  let c = ref c and p = ref off in
  let stop = off + len in
  while !p + 8 <= stop do
    let x = !c lxor word !p and y = word (!p + 4) in
    c :=
      Array.unsafe_get t (1792 lor (x land 0xFF))
      lxor Array.unsafe_get t (1536 lor ((x lsr 8) land 0xFF))
      lxor Array.unsafe_get t (1280 lor ((x lsr 16) land 0xFF))
      lxor Array.unsafe_get t (1024 lor (x lsr 24))
      lxor Array.unsafe_get t (768 lor (y land 0xFF))
      lxor Array.unsafe_get t (512 lor ((y lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 lor ((y lsr 16) land 0xFF))
      lxor Array.unsafe_get t (y lsr 24);
    p := !p + 8
  done;
  for i = !p to stop - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c

let finish c = Int32.of_int (c lxor 0xFFFFFFFF)

(* The register a finished CRC continues from; [resume 0l] is the
   initial register. *)
let resume crc = (Int32.to_int crc land 0xFFFFFFFF) lxor 0xFFFFFFFF

let crc32 ?(crc = 0l) ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Codec.crc32";
  finish (update (Lazy.force tables) (resume crc) s off len)

let crc32_pieces pieces = List.fold_left (fun crc s -> crc32 ~crc s) 0l pieces

module W = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let int b n = Buffer.add_int64_le b (Int64.of_int n)
  let bool b v = Buffer.add_char b (if v then '\001' else '\000')
  let float b f = Buffer.add_int64_le b (Int64.bits_of_float f)

  let str b s =
    int b (String.length s);
    Buffer.add_string b s

  let opt_str b = function
    | None -> bool b false
    | Some s ->
        bool b true;
        str b s

  let list b f xs =
    int b (List.length xs);
    List.iter f xs
end

module R = struct
  type t = { src : string; mutable pos : int }

  exception Corrupt of string

  let of_string src = { src; pos = 0 }

  let need r n what =
    if r.pos + n > String.length r.src then
      raise (Corrupt (Printf.sprintf "truncated %s at offset %d" what r.pos))

  let int r =
    need r 8 "int";
    let v = Int64.to_int (String.get_int64_le r.src r.pos) in
    r.pos <- r.pos + 8;
    v

  let bool r =
    need r 1 "bool";
    let c = r.src.[r.pos] in
    r.pos <- r.pos + 1;
    c <> '\000'

  let float r =
    need r 8 "float";
    let v = Int64.float_of_bits (String.get_int64_le r.src r.pos) in
    r.pos <- r.pos + 8;
    v

  let str r =
    let n = int r in
    if n < 0 then raise (Corrupt "negative string length");
    need r n "string";
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s

  let opt_str r = if bool r then Some (str r) else None

  let list r f =
    let n = int r in
    if n < 0 then raise (Corrupt "negative list length");
    List.init n (fun _ -> f ())

  let at_end r = r.pos = String.length r.src
end
