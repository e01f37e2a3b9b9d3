(* Tests for Uint256: ring axioms, comparisons, division, string and
   byte codecs.  Token amounts throughout the system use this type, so
   these invariants underpin the bridge conservation checks. *)

open Xcw_uint256

module U = Uint256

let u = U.of_int

let uint256_testable =
  Alcotest.testable U.pp U.equal

(* Generator for arbitrary 256-bit values built from four int64 limbs. *)
let gen_u256 =
  let open QCheck.Gen in
  map4 U.make ui64 ui64 ui64 ui64

let arb_u256 = QCheck.make ~print:U.to_decimal_string gen_u256

(* Small values where operations can be cross-checked against OCaml ints. *)
let arb_small =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "(%d, %d)" a b)
    QCheck.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)

let basic_constants =
  Alcotest.test_case "zero and one" `Quick (fun () ->
      Alcotest.(check bool) "zero is zero" true (U.is_zero U.zero);
      Alcotest.(check bool) "one is not zero" false (U.is_zero U.one);
      Alcotest.(check uint256_testable) "0+1=1" U.one (U.add U.zero U.one))

let decimal_roundtrip_known =
  Alcotest.test_case "decimal string round-trip on known values" `Quick
    (fun () ->
      List.iter
        (fun s ->
          Alcotest.(check string)
            s s
            (U.to_decimal_string (U.of_decimal_string s)))
        [
          "0";
          "1";
          "10";
          "123456789";
          "18446744073709551615" (* 2^64-1 *);
          "18446744073709551616" (* 2^64 *);
          "340282366920938463463374607431768211455" (* 2^128-1 *);
          "115792089237316195423570985008687907853269984665640564039457584007913129639935"
          (* 2^256-1 *);
        ])

let max_value_wraps =
  Alcotest.test_case "max value + 1 wraps to zero" `Quick (fun () ->
      Alcotest.(check uint256_testable)
        "wrap" U.zero
        (U.add U.max_int_u256 U.one))

let add_exn_overflow =
  Alcotest.test_case "add_exn raises on overflow" `Quick (fun () ->
      Alcotest.check_raises "overflow" U.Overflow (fun () ->
          ignore (U.add_exn U.max_int_u256 U.one)))

let sub_exn_underflow =
  Alcotest.test_case "sub_exn raises on underflow" `Quick (fun () ->
      Alcotest.check_raises "underflow" U.Underflow (fun () ->
          ignore (U.sub_exn U.zero U.one)))

let mul_exn_overflow =
  Alcotest.test_case "mul_exn raises on overflow" `Quick (fun () ->
      let big = U.shift_left U.one 255 in
      Alcotest.check_raises "overflow" U.Overflow (fun () ->
          ignore (U.mul_exn big (u 2))))

let division_by_zero =
  Alcotest.test_case "divmod by zero raises" `Quick (fun () ->
      Alcotest.check_raises "div0" Division_by_zero (fun () ->
          ignore (U.divmod U.one U.zero)))

let wei_conversions =
  Alcotest.test_case "token/wei conversions" `Quick (fun () ->
      let five_eth = U.of_tokens ~decimals:18 5 in
      Alcotest.(check string)
        "5 ether in wei" "5000000000000000000"
        (U.to_decimal_string five_eth);
      Alcotest.(check (float 1e-9))
        "back to tokens" 5.0
        (U.to_tokens ~decimals:18 five_eth))

let hex_string_roundtrip_known =
  Alcotest.test_case "hex round-trip on known values" `Quick (fun () ->
      let v = U.of_string "0xdeadbeef" in
      Alcotest.(check string) "decimal" "3735928559" (U.to_decimal_string v);
      Alcotest.(check uint256_testable)
        "via hex" v
        (U.of_hex_string (U.to_hex_string v)))

let bit_length_cases =
  Alcotest.test_case "bit_length" `Quick (fun () ->
      Alcotest.(check int) "zero" 0 (U.bit_length U.zero);
      Alcotest.(check int) "one" 1 (U.bit_length U.one);
      Alcotest.(check int) "256" 256 (U.bit_length U.max_int_u256);
      Alcotest.(check int) "2^64" 65 (U.bit_length (U.shift_left U.one 64)))

let shift_cases =
  Alcotest.test_case "shifts across limb boundaries" `Quick (fun () ->
      let v = U.of_string "0x0123456789abcdef0123456789abcdef" in
      Alcotest.(check uint256_testable)
        "left then right" v
        (U.shift_right (U.shift_left v 100) 100);
      Alcotest.(check uint256_testable)
        "shift out" U.zero
        (U.shift_right v 200))

let to_int_bounds =
  Alcotest.test_case "to_int bounds" `Quick (fun () ->
      Alcotest.(check int) "small" 12345 (U.to_int (u 12345));
      Alcotest.(check (option int)) "too big" None
        (U.to_int_opt (U.shift_left U.one 128)))

(* ------------------------------------------------------------------ *)
(* Decimal parser against its digit-at-a-time definition               *)

(* The reference [U.of_decimal_string] must agree with, exceptions and
   messages included: one checked 256-bit multiply-add per digit, left
   to right, so the first failing character decides the error. *)
let reference_of_decimal_string s =
  if s = "" then invalid_arg "Uint256.of_decimal_string: empty";
  let acc = ref U.zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' ->
          acc := U.add_exn (U.mul_exn !acc (u 10)) (u (Char.code c - Char.code '0'))
      | '_' -> ()
      | _ -> invalid_arg "Uint256.of_decimal_string: non-digit")
    s;
  !acc

let parse_outcome parse s =
  match parse s with
  | v -> Ok (U.to_decimal_string v)
  | exception U.Overflow -> Error "Overflow"
  | exception Invalid_argument msg -> Error ("Invalid_argument " ^ msg)

let max_decimal =
  "115792089237316195423570985008687907853269984665640564039457584007913129639935"

(* 2^256: the smallest value that overflows. *)
let max_plus_one_decimal =
  "115792089237316195423570985008687907853269984665640564039457584007913129639936"

let decimal_parser_cases =
  Alcotest.test_case "of_decimal_string boundaries and errors match the reference"
    `Quick (fun () ->
      let outcome = Alcotest.(result string string) in
      let expect name want s =
        Alcotest.check outcome name want (parse_outcome U.of_decimal_string s);
        Alcotest.check outcome (name ^ " (reference)") want
          (parse_outcome reference_of_decimal_string s)
      in
      expect "2^256-1 parses" (Ok max_decimal) max_decimal;
      expect "2^256 overflows" (Error "Overflow") max_plus_one_decimal;
      expect "empty" (Error "Invalid_argument Uint256.of_decimal_string: empty") "";
      expect "lone underscore is zero" (Ok "0") "_";
      expect "leading zeros past 78 digits" (Ok "42") (String.make 90 '0' ^ "42");
      expect "underscores inside a chunk" (Ok "1000000000000000000000")
        "1_000_000_000_000_000_000_000";
      expect "overflow before a stray character" (Error "Overflow")
        (max_plus_one_decimal ^ "x");
      expect "overflow inside a short final chunk" (Error "Overflow")
        (max_decimal ^ "0x");
      expect "stray character before an overflow"
        (Error "Invalid_argument Uint256.of_decimal_string: non-digit")
        ("1x" ^ max_plus_one_decimal))

(* Strings of digits, '_' and stray characters, with runs biased
   towards the chunk (18) and limb/width boundaries (19, 36, 37, 77,
   78 digits). *)
let arb_decimal_text =
  let open QCheck.Gen in
  let digit = map (fun d -> Char.chr (Char.code '0' + d)) (int_bound 9) in
  let noise =
    frequency
      [ (20, digit); (2, return '_'); (1, oneofl [ 'x'; ' '; '-'; '.'; 'e' ]) ]
  in
  let run n =
    map
      (fun cells ->
        String.concat ""
          (List.map (fun (d, sep) -> String.make 1 d ^ sep) cells))
      (list_repeat n (pair digit (frequency [ (9, return ""); (1, return "_") ])))
  in
  let boundary_run = oneofl [ 18; 19; 36; 37; 77; 78 ] >>= run in
  let gen =
    frequency
      [
        (2, string_size ~gen:noise (0 -- 100));
        (2, boundary_run);
        (1, map2 ( ^ ) boundary_run (string_size ~gen:noise (0 -- 4)));
        (1, map2 ( ^ ) (string_size ~gen:noise (0 -- 3)) boundary_run);
      ]
  in
  QCheck.make ~print:(Printf.sprintf "%S") gen

let prop_decimal_parser_oracle =
  QCheck.Test.make
    ~name:"of_decimal_string = digit-at-a-time reference, exceptions included"
    ~count:(Xcw_testlib.qcount 2000) arb_decimal_text (fun s ->
      parse_outcome U.of_decimal_string s
      = parse_outcome reference_of_decimal_string s)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let prop_add_comm =
  QCheck.Test.make ~name:"addition commutes" ~count:300
    (QCheck.pair arb_u256 arb_u256)
    (fun (a, b) -> U.equal (U.add a b) (U.add b a))

let prop_add_assoc =
  QCheck.Test.make ~name:"addition associates" ~count:300
    (QCheck.triple arb_u256 arb_u256 arb_u256)
    (fun (a, b, c) -> U.equal (U.add (U.add a b) c) (U.add a (U.add b c)))

let prop_add_sub_inverse =
  QCheck.Test.make ~name:"(a + b) - b = a" ~count:300
    (QCheck.pair arb_u256 arb_u256)
    (fun (a, b) -> U.equal (U.sub (U.add a b) b) a)

let prop_mul_comm =
  QCheck.Test.make ~name:"multiplication commutes" ~count:300
    (QCheck.pair arb_u256 arb_u256)
    (fun (a, b) -> U.equal (U.mul a b) (U.mul b a))

let prop_mul_assoc =
  QCheck.Test.make ~name:"multiplication associates" ~count:200
    (QCheck.triple arb_u256 arb_u256 arb_u256)
    (fun (a, b, c) -> U.equal (U.mul (U.mul a b) c) (U.mul a (U.mul b c)))

let prop_distributive =
  QCheck.Test.make ~name:"a*(b+c) = a*b + a*c (mod 2^256)" ~count:200
    (QCheck.triple arb_u256 arb_u256 arb_u256)
    (fun (a, b, c) ->
      U.equal (U.mul a (U.add b c)) (U.add (U.mul a b) (U.mul a c)))

let prop_mul_identity =
  QCheck.Test.make ~name:"a*1 = a and a*0 = 0" ~count:300 arb_u256 (fun a ->
      U.equal (U.mul a U.one) a && U.is_zero (U.mul a U.zero))

let prop_divmod =
  QCheck.Test.make ~name:"a = b*q + r with r < b" ~count:300
    (QCheck.pair arb_u256 arb_u256)
    (fun (a, b) ->
      QCheck.assume (not (U.is_zero b));
      let q, r = U.divmod a b in
      U.lt r b && U.equal a (U.add (U.mul b q) r))

let prop_small_matches_int =
  QCheck.Test.make ~name:"small-value ops match OCaml int arithmetic"
    ~count:300 arb_small (fun (a, b) ->
      U.to_int (U.add (u a) (u b)) = a + b
      && U.to_int (U.mul (u a) (u b)) = a * b
      && (b = 0 || U.to_int (U.div (u a) (u b)) = a / b)
      && (b = 0 || U.to_int (U.rem (u a) (u b)) = a mod b))

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare is antisymmetric and matches equal"
    ~count:300
    (QCheck.pair arb_u256 arb_u256)
    (fun (a, b) ->
      let c1 = U.compare a b and c2 = U.compare b a in
      (c1 = -c2) && (c1 = 0) = U.equal a b)

let prop_decimal_roundtrip =
  QCheck.Test.make ~name:"decimal round-trip" ~count:200 arb_u256 (fun a ->
      U.equal a (U.of_decimal_string (U.to_decimal_string a)))

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes_be round-trip" ~count:200 arb_u256 (fun a ->
      let b = U.to_bytes_be a in
      String.length b = 32 && U.equal a (U.of_bytes_be b))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex round-trip" ~count:200 arb_u256 (fun a ->
      U.equal a (U.of_hex_string (U.to_hex_string a)))

let prop_shift_mul_pow2 =
  QCheck.Test.make ~name:"shift_left k = multiply by 2^k" ~count:200
    (QCheck.pair arb_u256 (QCheck.int_bound 255))
    (fun (a, k) ->
      let pow2 = U.shift_left U.one k in
      U.equal (U.shift_left a k) (U.mul a pow2))

let prop_to_float_monotone =
  QCheck.Test.make ~name:"to_float is monotone on ordered pairs" ~count:200
    (QCheck.pair arb_u256 arb_u256)
    (fun (a, b) ->
      let a, b = if U.le a b then (a, b) else (b, a) in
      U.to_float a <= U.to_float b)

let () =
  Alcotest.run "uint256"
    [
      ( "unit",
        [
          basic_constants;
          decimal_roundtrip_known;
          max_value_wraps;
          add_exn_overflow;
          sub_exn_underflow;
          mul_exn_overflow;
          division_by_zero;
          wei_conversions;
          hex_string_roundtrip_known;
          bit_length_cases;
          shift_cases;
          to_int_bounds;
          decimal_parser_cases;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_add_comm;
            prop_add_assoc;
            prop_add_sub_inverse;
            prop_mul_comm;
            prop_mul_assoc;
            prop_distributive;
            prop_mul_identity;
            prop_divmod;
            prop_small_matches_int;
            prop_compare_total_order;
            prop_decimal_roundtrip;
            prop_bytes_roundtrip;
            prop_hex_roundtrip;
            prop_shift_mul_pow2;
            prop_to_float_monotone;
            prop_decimal_parser_oracle;
          ] );
    ]
