(* Failure-path tests: malformed inputs must be rejected with clear
   errors at every layer — the assembler, the APK container format, the
   policy parser, the relational AST, and the bounds checker. *)

open Separ_relog

let check = Alcotest.(check bool)

let raises_failure f =
  try
    ignore (f ());
    false
  with
  | Failure _ -> true
  | Separ_dalvik.Asm.Parse_error _ -> true

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* --- assembler --------------------------------------------------------------- *)

let test_asm_bad_instruction () =
  check "garbage instruction" true
    (raises_failure (fun () ->
         Separ_dalvik.Asm.assemble
           ".class C\n.method m params=0 regs=1\n  frobnicate v0\n.end\n"))

let test_asm_unterminated_method () =
  check "missing .end" true
    (raises_failure (fun () ->
         Separ_dalvik.Asm.assemble ".class C\n.method m params=0 regs=1\n  nop\n"))

let test_asm_instruction_outside_method () =
  check "instruction outside method" true
    (raises_failure (fun () ->
         Separ_dalvik.Asm.assemble ".class C\n  nop\n"))

let test_asm_bad_register () =
  check "bad register" true
    (raises_failure (fun () ->
         Separ_dalvik.Asm.assemble
           ".class C\n.method m params=0 regs=1\n  move vx, v0\n.end\n"))

let test_asm_undefined_label () =
  check "undefined branch target" true
    (raises_failure (fun () ->
         Separ_dalvik.Asm.assemble
           ".class C\n.method m params=0 regs=1\n  goto :missing\n.end\n"))

(* --- APK text ------------------------------------------------------------------ *)

let test_apk_text_missing_package () =
  check "missing .package" true
    (raises_failure (fun () ->
         Separ_dalvik.Apk_text.parse ".component Activity A\n"))

let test_apk_text_bad_kind () =
  check "bad component kind" true
    (raises_failure (fun () ->
         Separ_dalvik.Apk_text.parse ".package p\n.component Widget W\n"))

let test_apk_text_unknown_line () =
  check "unknown directive" true
    (raises_failure (fun () ->
         Separ_dalvik.Apk_text.parse ".package p\n.frobnicate x\n"))

(* A malformed class body must surface as [Failure], the one exception
   [Apk_text.parse] documents, not as the assembler's [Parse_error]. *)
let test_apk_text_bad_class_body () =
  match
    Separ_dalvik.Apk_text.parse
      ".package p\n.class C\n.method m params=0 regs=1\n  frobnicate v0\n.end\n"
  with
  | _ -> Alcotest.fail "malformed class body parsed"
  | exception Failure msg ->
      check "message names the parser" true
        (String.starts_with ~prefix:"Apk_text.parse: unrecognised instruction"
           msg)

(* --- policies -------------------------------------------------------------------- *)

let test_policy_bad_line () =
  check "malformed policy line" true
    (raises_failure (fun () -> Separ_policy.Policy.of_line "not a policy"));
  check "bad event" true
    (raises_failure (fun () ->
         Separ_policy.Policy.of_line "id\tBAD_EVENT\tallow\treason\t"));
  check "bad action" true
    (raises_failure (fun () ->
         Separ_policy.Policy.of_line "id\tICC_send\texplode\treason\t"));
  check "bad condition" true
    (raises_failure (fun () ->
         Separ_policy.Policy.of_line
           "id\tICC_send\tallow\treason\tIntent.frobnicate=x"));
  check "bad resource in condition" true
    (raises_failure (fun () ->
         Separ_policy.Policy.of_line
           "id\tICC_send\tallow\treason\tIntent.extra=NOT_A_RESOURCE"))

(* --- relational AST -------------------------------------------------------------- *)

let test_ast_arity_errors () =
  let u = Relation.make "U" 1 and b = Relation.make "B" 2 in
  let arity_err f =
    try
      ignore (Ast.arity (f ()));
      false
    with Ast.Arity_error _ -> true
  in
  check "transpose of unary" true
    (arity_err (fun () -> Ast.Transpose (Ast.Rel u)));
  check "closure of unary" true
    (arity_err (fun () -> Ast.Closure (Ast.Rel u)));
  check "union of mixed arity" true
    (arity_err (fun () -> Ast.Union (Ast.Rel u, Ast.Rel b)));
  check "join to arity zero" true
    (arity_err (fun () -> Ast.Join (Ast.Rel u, Ast.Rel u)))

let test_bounds_errors () =
  let u = Universe.of_atoms [ "a"; "b" ] in
  let r = Relation.make "R" 1 in
  let bounds = Bounds.create u in
  check "lower must be within upper" true
    (raises_invalid (fun () ->
         Bounds.bound bounds r
           ~lower:(Tuple_set.univ 2)
           ~upper:(Tuple_set.of_list 1 [ [| 0 |] ])));
  check "arity mismatch rejected" true
    (raises_invalid (fun () ->
         Bounds.bound bounds r ~lower:(Tuple_set.empty 2)
           ~upper:(Tuple_set.iden 2)));
  check "unbound relation lookup" true
    (raises_invalid (fun () -> Bounds.get bounds r))

let test_tuple_set_errors () =
  check "of_list arity mismatch" true
    (raises_invalid (fun () -> Tuple_set.of_list 2 [ [| 0 |] ]));
  check "union arity mismatch" true
    (raises_invalid (fun () ->
         Tuple_set.union (Tuple_set.univ 2) (Tuple_set.iden 2)));
  check "transpose of unary" true
    (raises_invalid (fun () -> Tuple_set.transpose (Tuple_set.univ 2)))

let test_relation_arity () =
  check "arity must be positive" true
    (raises_invalid (fun () -> Relation.make "Z" 0))

(* --- solver input ------------------------------------------------------------------ *)

let test_solver_zero_literal () =
  let s = Separ_sat.Solver.create () in
  check "zero literal rejected" true
    (raises_invalid (fun () -> Separ_sat.Solver.add_clause s [ 1; 0 ]))

let test_dimacs_garbage () =
  check "garbage token" true
    (raises_failure (fun () -> Separ_sat.Dimacs.parse_string "p cnf 2 1\n1 x 0\n"))

(* --- device ------------------------------------------------------------------------- *)

let test_device_unknown_app () =
  let d = Separ_runtime.Device.create () in
  check "starting an uninstalled app" true
    (raises_invalid (fun () ->
         Separ_runtime.Device.start_component d ~pkg:"ghost" ~component:"C"))

let tests =
  [
    Alcotest.test_case "asm: bad instruction" `Quick test_asm_bad_instruction;
    Alcotest.test_case "asm: unterminated method" `Quick
      test_asm_unterminated_method;
    Alcotest.test_case "asm: instruction outside method" `Quick
      test_asm_instruction_outside_method;
    Alcotest.test_case "asm: bad register" `Quick test_asm_bad_register;
    Alcotest.test_case "asm: undefined label" `Quick test_asm_undefined_label;
    Alcotest.test_case "apk text: missing package" `Quick
      test_apk_text_missing_package;
    Alcotest.test_case "apk text: bad kind" `Quick test_apk_text_bad_kind;
    Alcotest.test_case "apk text: unknown directive" `Quick
      test_apk_text_unknown_line;
    Alcotest.test_case "apk text: bad class body" `Quick
      test_apk_text_bad_class_body;
    Alcotest.test_case "policy: malformed lines" `Quick test_policy_bad_line;
    Alcotest.test_case "ast: arity errors" `Quick test_ast_arity_errors;
    Alcotest.test_case "bounds: errors" `Quick test_bounds_errors;
    Alcotest.test_case "tuple set: errors" `Quick test_tuple_set_errors;
    Alcotest.test_case "relation: arity" `Quick test_relation_arity;
    Alcotest.test_case "solver: zero literal" `Quick test_solver_zero_literal;
    Alcotest.test_case "dimacs: garbage" `Quick test_dimacs_garbage;
    Alcotest.test_case "device: unknown app" `Quick test_device_unknown_app;
  ]
