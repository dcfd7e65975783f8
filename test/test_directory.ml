(* Tests for the pure directory semantics and its codec. *)

module D = Dirsvc.Directory

let secret = Capability.mint_secret 100L

let with_dir f =
  match
    D.apply D.empty ~seqno:1
      (D.Create_dir { columns = [ "owner"; "group"; "other" ]; secret; hint = None })
  with
  | Ok (store, D.Created id) ->
      let cap = Capability.owner ~port:"dirsvc" ~obj:id secret in
      f store cap
  | _ -> Alcotest.fail "create failed"

let target_cap i = Capability.owner ~port:"x" ~obj:i (Capability.mint_secret (Int64.of_int i))

let test_create_and_list () =
  with_dir (fun store cap ->
      match D.list_dir store ~cap ~column:0 with
      | Ok listing ->
          Alcotest.(check (list string)) "columns" [ "owner"; "group"; "other" ]
            listing.D.listed_columns;
          Alcotest.(check int) "empty" 0 (List.length listing.D.entries)
      | Error _ -> Alcotest.fail "list failed")

let test_append_lookup_delete () =
  with_dir (fun store cap ->
      let t1 = target_cap 1 in
      match D.apply store ~seqno:2 (D.Append_row { cap; name = "foo"; caps = [ t1 ]; masks = [] }) with
      | Ok (store, D.Updated) -> (
          (match D.lookup store ~cap ~name:"foo" ~column:0 with
          | Ok (found, _) ->
              Alcotest.(check bool) "cap returned" true (Capability.equal found t1)
          | Error _ -> Alcotest.fail "lookup failed");
          match D.apply store ~seqno:3 (D.Delete_row { cap; name = "foo" }) with
          | Ok (store, D.Updated) ->
              Alcotest.(check bool) "gone" true
                (D.lookup store ~cap ~name:"foo" ~column:0 = Error D.Not_found)
          | _ -> Alcotest.fail "delete failed")
      | _ -> Alcotest.fail "append failed")

let test_duplicate_append_fails () =
  with_dir (fun store cap ->
      let t1 = target_cap 1 in
      let append s =
        D.apply s ~seqno:2 (D.Append_row { cap; name = "foo"; caps = [ t1 ]; masks = [] })
      in
      match append store with
      | Ok (store, _) ->
          Alcotest.(check bool) "second append refused" true
            (append store = Error D.Already_exists)
      | Error _ -> Alcotest.fail "first append failed")

let test_column_isolation () =
  with_dir (fun store cap ->
      let strong = target_cap 1 and weak = target_cap 2 in
      match
        D.apply store ~seqno:2
          (D.Append_row { cap; name = "obj"; caps = [ strong; weak; weak ]; masks = [] })
      with
      | Ok (store, _) -> (
          (* A capability restricted to column 2 sees only the weak cap
             and cannot read column 0. *)
          let col2_cap = Capability.restrict cap ~mask:(D.column_right 2) in
          (match D.lookup store ~cap:col2_cap ~name:"obj" ~column:2 with
          | Ok (found, _) ->
              Alcotest.(check bool) "sees weak cap" true (Capability.equal found weak)
          | Error _ -> Alcotest.fail "column 2 lookup failed");
          match D.lookup store ~cap:col2_cap ~name:"obj" ~column:0 with
          | Error D.No_permission -> ()
          | Ok _ -> Alcotest.fail "column 0 should be hidden"
          | Error e -> Alcotest.failf "wrong error %s" (D.error_to_string e))
      | Error _ -> Alcotest.fail "append failed")

let test_capability_enforcement () =
  with_dir (fun store cap ->
      let read_only = Capability.restrict cap ~mask:D.all_columns_mask in
      (match D.apply store ~seqno:2 (D.Delete_dir { cap = read_only }) with
      | Error D.No_permission -> ()
      | _ -> Alcotest.fail "delete without right should fail");
      let forged = { cap with Capability.check = 0L } in
      match D.list_dir store ~cap:forged ~column:0 with
      | Error D.Bad_capability -> ()
      | _ -> Alcotest.fail "forged capability should be rejected")

let test_chmod_masks () =
  with_dir (fun store cap ->
      let t1 = target_cap 1 in
      let store =
        match
          D.apply store ~seqno:2
            (D.Append_row { cap; name = "foo"; caps = [ t1 ]; masks = [] })
        with
        | Ok (s, _) -> s
        | Error _ -> Alcotest.fail "append failed"
      in
      match
        D.apply store ~seqno:3 (D.Chmod_row { cap; name = "foo"; masks = [ 0x1 ] })
      with
      | Ok (store, _) -> (
          match D.lookup store ~cap ~name:"foo" ~column:0 with
          | Ok (_, mask) -> Alcotest.(check int) "mask applied" 0x1 mask
          | Error _ -> Alcotest.fail "lookup failed")
      | Error _ -> Alcotest.fail "chmod failed")

let test_replace_set () =
  with_dir (fun store cap ->
      let t1 = target_cap 1 and t2 = target_cap 2 in
      let store =
        List.fold_left
          (fun s name ->
            match
              D.apply s ~seqno:2 (D.Append_row { cap; name; caps = [ t1 ]; masks = [] })
            with
            | Ok (s, _) -> s
            | Error _ -> Alcotest.fail "append failed")
          store [ "a"; "b" ]
      in
      (match
         D.apply store ~seqno:3
           (D.Replace_set { cap; rows = [ ("a", [ t2 ]); ("b", [ t2 ]) ] })
       with
      | Ok (store, _) ->
          List.iter
            (fun name ->
              match D.lookup store ~cap ~name ~column:0 with
              | Ok (found, _) ->
                  Alcotest.(check bool) (name ^ " replaced") true
                    (Capability.equal found t2)
              | Error _ -> Alcotest.fail "lookup failed")
            [ "a"; "b" ]
      | Error _ -> Alcotest.fail "replace failed");
      (* Replacing a missing row fails atomically. *)
      match
        D.apply store ~seqno:4 (D.Replace_set { cap; rows = [ ("ghost", [ t2 ]) ] })
      with
      | Error (D.Bad_request _) -> ()
      | _ -> Alcotest.fail "replace of missing row should fail")

let test_delete_dir_invalidates () =
  with_dir (fun store cap ->
      match D.apply store ~seqno:2 (D.Delete_dir { cap }) with
      | Ok (store, _) ->
          Alcotest.(check bool) "directory gone" true
            (D.list_dir store ~cap ~column:0 = Error D.Not_found)
      | Error _ -> Alcotest.fail "delete failed")

let test_create_id_allocation () =
  (* Lowest-free allocation is deterministic and reuses freed ids, and
     [dir_id_of_op] names the id before the create is applied. *)
  let create store =
    let op = D.Create_dir { columns = [ "c" ]; secret; hint = None } in
    match D.apply store ~seqno:1 op with
    | Ok (store', D.Created id) ->
        Alcotest.(check int) "dir_id_of_op = created id" id
          (D.dir_id_of_op store op);
        (store', id)
    | _ -> Alcotest.fail "create failed"
  in
  let store, id0 = create D.empty in
  let store, id1 = create store in
  Alcotest.(check (pair int int)) "sequential ids" (0, 1) (id0, id1);
  let cap0 = Capability.owner ~port:"dirsvc" ~obj:id0 secret in
  let store =
    match D.apply store ~seqno:2 (D.Delete_dir { cap = cap0 }) with
    | Ok (store, _) -> store
    | Error _ -> Alcotest.fail "delete failed"
  in
  let _, id2 = create store in
  Alcotest.(check int) "freed id reused" 0 id2

let test_hint_allocation () =
  let op = D.Create_dir { columns = [ "c" ]; secret; hint = Some 42 } in
  match D.apply D.empty ~seqno:1 op with
  | Ok (store, D.Created id) ->
      Alcotest.(check int) "hint honoured" 42 id;
      Alcotest.(check int) "dir_id_of_op = hint" 42 (D.dir_id_of_op D.empty op);
      Alcotest.(check bool) "hint collision refused" true
        (D.apply store ~seqno:2 op = Error D.Already_exists)
  | _ -> Alcotest.fail "create failed"

let arbitrary_name = QCheck.Gen.(map (Printf.sprintf "n%d") (int_bound 10))

let arbitrary_op cap =
  let open QCheck.Gen in
  frequency
    [
      (4, map (fun n -> D.Append_row { cap; name = n; caps = [ target_cap 1 ]; masks = [] }) arbitrary_name);
      (3, map (fun n -> D.Delete_row { cap; name = n }) arbitrary_name);
      (1, map (fun n -> D.Chmod_row { cap; name = n; masks = [ 3 ] }) arbitrary_name);
    ]

let codec_roundtrip_property =
  QCheck.Test.make ~name:"directory codec roundtrip after random ops" ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (1 -- 25) (with_dir (fun _ cap -> arbitrary_op cap))))
    (fun ops ->
      with_dir (fun store cap ->
          ignore cap;
          let final =
            List.fold_left
              (fun (s, seq) op ->
                match D.apply s ~seqno:seq op with
                | Ok (s', _) -> (s', seq + 1)
                | Error _ -> (s, seq))
              (store, 2) ops
            |> fst
          in
          D.Store.for_all
            (fun _ dir -> D.decode_dir (D.encode_dir dir) = dir)
            final))

let apply_determinism_property =
  QCheck.Test.make ~name:"apply is deterministic" ~count:100
    (QCheck.make
       QCheck.Gen.(list_size (1 -- 15) (with_dir (fun _ cap -> arbitrary_op cap))))
    (fun ops ->
      let run () =
        with_dir (fun store _cap ->
            List.fold_left
              (fun (s, seq) op ->
                match D.apply s ~seqno:seq op with
                | Ok (s', _) -> (s', seq + 1)
                | Error _ -> (s, seq))
              (store, 2) ops
            |> fst)
      in
      D.equal_store (run ()) (run ()))

let suite =
  let tc = Alcotest.test_case in
  [
    tc "create and list" `Quick test_create_and_list;
    tc "append, lookup, delete" `Quick test_append_lookup_delete;
    tc "duplicate append fails" `Quick test_duplicate_append_fails;
    tc "column isolation" `Quick test_column_isolation;
    tc "capability enforcement" `Quick test_capability_enforcement;
    tc "chmod masks" `Quick test_chmod_masks;
    tc "replace set" `Quick test_replace_set;
    tc "delete dir invalidates" `Quick test_delete_dir_invalidates;
    tc "create id allocation" `Quick test_create_id_allocation;
    tc "hint allocation" `Quick test_hint_allocation;
    QCheck_alcotest.to_alcotest codec_roundtrip_property;
    QCheck_alcotest.to_alcotest apply_determinism_property;
  ]
