module T = Sc_merkle.Tree

let known_roots =
  [
    (1, "b14450f3135ee28c24d2ff3d116039a224d460b58914d97637f182b1537e7b5a");
    (2, "e4ed9e0b564c4405e30229411f9640109299344f0ede3cacff1eb0e3a2700668");
    (3, "a5bc2a7c619f76897137c45316896e8531de438f0e32aeb6ecc16e4f8409a653");
    (4, "b10efdd9f5be5e3cc1f0eafb58a0f9ca6107a918e7c3f00b16e650d394029f63");
    (5, "075de1b26dc202497ab4ff8aeb04db07a25d09c60faeed929ae9334b322ad3a0");
    (7, "cab8da4d33524ad89e2fcc3d6d6ff50974ad8ecdd3cacd710d2660423942d5b2");
    (8, "32b1b10990cf120c03782901c8d96b5cf43666914aa3391d3a76a4cf8aa20bc4");
    (9, "028921d8c0eacf28c21d315ff453d43b1e3d4a5366c4fe121edafa0ef9854ce2");
    (15, "39c77c8933428252a26b661be3b3f46629fff6d3ed7a22550680a65485c7502d");
    (16, "41a9903b2aac13e5f82fe1781ba34a856ee530edf48b57c63daf8cdbdc22b32e");
    (17, "4f5bffd25f2a613e7da8c0a2d6088a07f0d4db6eba45c47f2d63445c2c5e2ead");
    (33, "25d633bbb60c27422ce035661004aa04852b93cdf32ff547d4730d64a32e116d");
    (100, "bbe7297503d092604ef744657c2f9a8c3c2d6c748419de105ad1d7bd7bf119d0");
  ]

let unit_tests =
  let open Util in
  [
    case "build rejects empty" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Merkle.build: empty leaf list")
          (fun () -> ignore (T.build [])));
    case "single leaf: root = leaf hash" (fun () ->
        let t = T.build [ "only" ] in
        check Alcotest.string "root" (T.leaf_hash "only") (T.root t);
        check Alcotest.int "size" 1 (T.size t);
        let p = T.proof t 0 in
        check Alcotest.bool "proof verifies" true
          (T.verify_proof ~root:(T.root t) ~leaf_payload:"only" p));
    case "deterministic roots" (fun () ->
        let leaves = List.init 9 (Printf.sprintf "leaf-%d") in
        check Alcotest.bool "same" true (T.equal_root (T.build leaves) (T.build leaves)));
    case "order sensitivity" (fun () ->
        let a = T.build [ "x"; "y" ] and b = T.build [ "y"; "x" ] in
        check Alcotest.bool "different" false (T.equal_root a b));
    case "leaf/node domain separation" (fun () ->
        (* A two-leaf tree's root must differ from the leaf hash of the
           concatenation (no second-preimage shortcut). *)
        let t = T.build [ "ab"; "cd" ] in
        check Alcotest.bool "distinct" false
          (String.equal (T.root t) (T.leaf_hash "abcd")));
    case "proofs verify at every size and index" (fun () ->
        List.iter
          (fun n ->
            let payloads = List.init n (Printf.sprintf "p%d-%d" n) in
            let t = T.build payloads in
            List.iteri
              (fun i payload ->
                let proof = T.proof t i in
                if not (T.verify_proof ~root:(T.root t) ~leaf_payload:payload proof)
                then Alcotest.failf "size %d index %d" n i)
              payloads)
          [ 1; 2; 3; 4; 5; 7; 8; 9; 15; 16; 17; 33; 64; 100 ]);
    case "proof for wrong payload fails" (fun () ->
        let t = T.build [ "a"; "b"; "c"; "d"; "e" ] in
        let proof = T.proof t 2 in
        check Alcotest.bool "wrong payload" false
          (T.verify_proof ~root:(T.root t) ~leaf_payload:"x" proof));
    case "proof against wrong root fails" (fun () ->
        let t = T.build [ "a"; "b"; "c"; "d" ] in
        let other = T.build [ "a"; "b"; "c"; "x" ] in
        let proof = T.proof t 0 in
        check Alcotest.bool "wrong root" false
          (T.verify_proof ~root:(T.root other) ~leaf_payload:"a" proof));
    case "tampered sibling in path fails" (fun () ->
        let t = T.build [ "a"; "b"; "c"; "d" ] in
        let proof = T.proof t 1 in
        let tampered =
          {
            proof with
            T.path =
              (match proof.T.path with
              | (side, rank, h) :: rest ->
                (side, rank, T.leaf_hash (h ^ "!")) :: rest
              | [] -> []);
          }
        in
        check Alcotest.bool "tampered" false
          (T.verify_proof ~root:(T.root t) ~leaf_payload:"b" tampered));
    case "proof out of bounds raises" (fun () ->
        let t = T.build [ "a"; "b" ] in
        Alcotest.check_raises "oob" (Invalid_argument "Merkle.proof: index out of bounds")
          (fun () -> ignore (T.proof t 2)));
    case "known-answer roots for fixed payloads" (fun () ->
        (* Recorded from the array-of-levels reference tree this module
           replaced; any change to leaf/node hashing or to the shape
           moves them. *)
        List.iter
          (fun (n, expected) ->
            let t = T.build (List.init n (Printf.sprintf "leaf-%d")) in
            check Alcotest.string (Printf.sprintf "n=%d" n) expected
              (Sc_hash.Sha256.hex_of_digest (T.root t)))
          known_roots);
  ]

let property_tests =
  let open Util in
  let gen_leaves =
    QCheck2.Gen.(list_size (int_range 1 80) (string_size ~gen:printable (int_range 0 20)))
  in
  [
    qcheck ~count:60 "all proofs verify on random trees" gen_leaves (fun leaves ->
        let t = T.build leaves in
        List.for_all
          (fun i ->
            T.verify_proof ~root:(T.root t)
              ~leaf_payload:(List.nth leaves i) (T.proof t i))
          (List.init (List.length leaves) Fun.id));
    qcheck ~count:60 "any single-leaf tamper is detected"
      QCheck2.Gen.(pair gen_leaves small_nat)
      (fun (leaves, idx) ->
        let n = List.length leaves in
        let i = idx mod n in
        let t = T.build leaves in
        let tampered = List.mapi (fun j l -> if j = i then l ^ "~" else l) leaves in
        let t' = T.build tampered in
        not (T.equal_root t t'));
  ]

(* --- dynamics: persistent point updates, rank proofs, frontier ------- *)

let dyn_sizes = [ 1; 2; 3; 5; 7; 8; 9; 15; 16; 17; 31; 32; 33 ]

let payloads tag n = List.init n (Printf.sprintf "%s-%d-%d" tag n)

(* [t] has the root of a from-scratch build over [payloads]. *)
let same_root payloads t = String.equal (T.root (T.build payloads)) (T.root t)

let dynamic_unit_tests =
  let open Util in
  [
    case "dynamic: roots equal Tree.build at every size" (fun () ->
        (* From leaf hashes, and through the [Dynamic_tree] alias. *)
        List.iter
          (fun n ->
            let ps = payloads "eq" n in
            if not (same_root ps (T.of_leaf_hashes (List.map T.leaf_hash ps)))
            then Alcotest.failf "size %d: of_leaf_hashes root mismatch" n;
            if
              not
                (String.equal
                   (T.root (T.build ps))
                   (Sc_merkle.Dynamic_tree.root (Sc_merkle.Dynamic_tree.build ps)))
            then Alcotest.failf "size %d: Dynamic_tree root mismatch" n)
          dyn_sizes);
    case "dynamic: rank proofs verify at every size and index" (fun () ->
        List.iter
          (fun n ->
            let ps = payloads "pf" n in
            let t = T.build ps in
            List.iteri
              (fun i p ->
                let proof = T.proof t i in
                if not (T.verify_proof ~root:(T.root t) ~leaf_payload:p proof)
                then Alcotest.failf "size %d index %d" n i;
                if proof.T.total <> n || proof.T.index <> i then
                  Alcotest.failf "size %d index %d: bad annotations" n i)
              ps)
          dyn_sizes);
    case "dynamic: proof geometry matches expected_geometry" (fun () ->
        List.iter
          (fun n ->
            let t = T.build (payloads "geo" n) in
            for i = 0 to n - 1 do
              let p = T.proof t i in
              let geom = List.map (fun (s, r, _) -> (s, r)) p.T.path in
              if geom <> T.expected_geometry ~total:n ~index:i then
                Alcotest.failf "size %d index %d geometry" n i
            done)
          dyn_sizes);
    case "dynamic: relocated proof fails (position binding)" (fun () ->
        (* A server cannot serve leaf j's data under index i: the claim
           (index, total) fixes the path geometry arithmetically. *)
        let n = 11 in
        let ps = payloads "rel" n in
        let t = T.build ps in
        let p3 = T.proof t 3 in
        let relabelled = { p3 with T.index = 5 } in
        check Alcotest.bool "relabelled index" false
          (T.verify_proof ~root:(T.root t) ~leaf_payload:(List.nth ps 3)
             relabelled);
        let stretched = { p3 with T.total = n + 1 } in
        check Alcotest.bool "inflated total" false
          (T.verify_proof ~root:(T.root t) ~leaf_payload:(List.nth ps 3)
             stretched);
        let swapped = { (T.proof t 6) with T.index = 3 } in
        check Alcotest.bool "leaf 6 as leaf 3" false
          (T.verify_proof ~root:(T.root t) ~leaf_payload:(List.nth ps 6)
             swapped));
    case "dynamic: modify at every size and index equals rebuild" (fun () ->
        List.iter
          (fun n ->
            let ps = payloads "mod" n in
            let t = T.build ps in
            for i = 0 to n - 1 do
              let ps' = List.mapi (fun j p -> if j = i then "new!" else p) ps in
              let t' = T.modify t i (T.leaf_hash "new!") in
              if not (same_root ps' t') then Alcotest.failf "size %d idx %d" n i;
              (* persistence: the original version is untouched *)
              if not (same_root ps t) then Alcotest.failf "size %d mutated" n
            done)
          [ 1; 2; 3; 5; 7; 9; 16; 17; 33 ]);
    case "dynamic: append chain equals rebuild at every length" (fun () ->
        let rec go t ps n =
          if n <= 40 then begin
            let p = Printf.sprintf "app-%d" n in
            let ps = ps @ [ p ] in
            let t = T.append t (T.leaf_hash p) in
            if not (same_root ps t) then Alcotest.failf "length %d" n;
            go t ps (n + 1)
          end
        in
        go (T.build [ "app-0" ]) [ "app-0" ] 1);
    case "dynamic: frontier tracks every root" (fun () ->
        List.iter
          (fun n ->
            let t = T.build (payloads "fr" n) in
            let f = T.Frontier.of_tree t in
            check Alcotest.int "total" n (T.Frontier.total f);
            check Alcotest.string "root" (T.root t) (T.Frontier.root f))
          dyn_sizes);
    case "dynamic: frontier append and modify match the tree" (fun () ->
        let t0 = T.build (payloads "fam" 5) in
        let f0 = T.Frontier.of_tree t0 in
        (* appends *)
        let t1 = T.append t0 (T.leaf_hash "x5") in
        let f1 = T.Frontier.append f0 (T.leaf_hash "x5") in
        check Alcotest.string "append root" (T.root t1) (T.Frontier.root f1);
        (* modify via a proof from the appended tree *)
        let p = T.proof t1 2 in
        let t2 = T.modify t1 2 (T.leaf_hash "y2") in
        let f2 = T.Frontier.modify f1 p ~leaf_hash:(T.leaf_hash "y2") in
        check Alcotest.string "modify root" (T.root t2) (T.Frontier.root f2));
    case "dynamic ops cost at most ceil(log2 n) digests" (fun () ->
        (* Counted, not timed.  The sizes are not powers of two: there
           an append is one hash above the old root, and would pass
           whatever the right-spine recursion costs. *)
        let count () =
          Sc_telemetry.Telemetry.counter_value "hash.sha256.digests"
        in
        let digests f =
          let before = count () in
          let v = f () in
          v, count () - before
        in
        List.iter
          (fun n ->
            let t =
              T.of_leaf_hashes
                (List.init n (fun i -> T.leaf_hash (string_of_int i)))
            in
            let log2n =
              let rec go k p = if p >= n then k else go (k + 1) (2 * p) in
              go 0 1
            in
            let at_most what cost =
              if cost > log2n then
                Alcotest.failf "n=%d %s: %d digests > %d" n what cost log2n
            in
            let fresh = T.leaf_hash "fresh" in
            List.iter
              (fun i ->
                at_most "modify" (snd (digests (fun () -> T.modify t i fresh)));
                let ok, cost =
                  digests (fun () ->
                      T.verify ~root:(T.root t) ~leaf_hash:(T.leaf t i)
                        (T.proof t i))
                in
                if not ok then Alcotest.failf "n=%d index %d: rejected" n i;
                at_most "proof+verify" cost)
              [ 0; n / 2; n - 1 ];
            at_most "append" (snd (digests (fun () -> T.append t fresh))))
          [ 1027; 16387; 131077 ]);
  ]

let dynamic_property_tests =
  let open Util in
  let gen_leaves =
    QCheck2.Gen.(
      list_size (int_range 1 48) (string_size ~gen:printable (int_range 0 16)))
  in
  (* A random modify/append script over a model list: every reachable
     root must equal a from-scratch build of the model. *)
  let gen_script =
    QCheck2.Gen.(pair gen_leaves (list_size (int_range 1 24) (pair bool nat)))
  in
  let step (model, t) (is_modify, r) =
    if is_modify then
      let i = r mod List.length model in
      let p = Printf.sprintf "m%d" r in
      ( List.mapi (fun j x -> if j = i then p else x) model,
        T.modify t i (T.leaf_hash p) )
    else
      let p = Printf.sprintf "a%d" r in
      (model @ [ p ], T.append t (T.leaf_hash p))
  in
  let run_script (leaves, script) =
    let check_state (model, t) =
      same_root model t && T.size t = List.length model
    in
    let final =
      List.fold_left
        (fun state op ->
          let state = step state op in
          if not (check_state state) then raise Exit;
          state)
        (leaves, T.build leaves) script
    in
    check_state final
  in
  [
    qcheck ~count:40 "dynamic: every reachable root equals Tree.build"
      gen_script (fun input ->
        try run_script input with Exit -> false);
    qcheck ~count:60 "dynamic: rank proofs verify on random trees" gen_script
      (fun (leaves, script) ->
        (* on trees reached by updates, not only on fresh builds *)
        let model, t = List.fold_left step (leaves, T.build leaves) script in
        List.for_all
          (fun i ->
            T.verify_proof ~root:(T.root t)
              ~leaf_payload:(List.nth model i) (T.proof t i))
          (List.init (List.length model) Fun.id));
  ]

let suite =
  unit_tests @ property_tests @ dynamic_unit_tests @ dynamic_property_tests
