(* The benchmark's own statistics: the ten-beyond tail rule, span
   self time and layer attribution, open-loop latency, backlog
   growth, scaling call times to a reference speed. *)

let floats = Alcotest.(float 1e-9)

let tail_needs_ten_beyond () =
  let xs n = Array.init n float_of_int in
  let check name p n expect =
    Alcotest.(check (option (float 0.))) name expect (Stats.tail_at p (xs n))
  in
  check "p90 of 100: ten above" 90. 100 (Some 89.);
  check "p90 of 99: only nine above" 90. 99 None;
  check "p99 of 1000" 99. 1000 (Some 989.);
  check "p99 of 999" 99. 999 None;
  check "p50 of 20" 50. 20 (Some 9.);
  (* Whenever a tail is reported, at least ten samples lie above it. *)
  List.iter
    (fun (p, n) ->
      match Stats.tail_at p (xs n) with
      | None -> ()
      | Some v ->
        let above = Array.fold_left (fun a x -> if x > v then a + 1 else a) 0 (xs n) in
        Alcotest.(check bool) (Printf.sprintf "p%g of %d: %d above" p n above) true (above >= 10))
    (List.concat_map (fun p -> List.map (fun n -> p, n) [ 20; 57; 100; 345; 1000; 4321 ]) [ 50.; 90.; 99.; 99.9 ])

let quantiles () =
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.check floats "median" 3. (Stats.median xs);
  Alcotest.check floats "p100" 5. (Stats.quantile xs 1.0);
  Alcotest.check floats "p0" 1. (Stats.quantile xs 0.0);
  Alcotest.check floats "p90 by nearest rank" 5. (Stats.quantile xs 0.9)

let reference_speed () =
  let scale ~window probes times =
    Array.to_list (Stats.scale_to_reference ~window ~nominal:1. ~probes:(Array.of_list probes)
      (Array.of_list times))
  in
  let check name expect got = Alcotest.(check (list floats)) name expect got in
  check "probes at reference speed: times unchanged" [ 3.; 5. ]
    (scale ~window:1 [ 1.; 1.; 1.; 1. ] [ 3.; 5. ]);
  (* Six calls of equal work; the host runs half as fast for the last
     three, slowing their probes and their times alike. *)
  check "a slow stretch is scaled back" [ 4.; 4.; 4.; 4.; 4.; 4. ]
    (scale ~window:1
       [ 1.; 1.; 1.; 1.; 1.; 1.; 2.; 2.; 2.; 2.; 2.; 2. ]
       [ 4.; 4.; 4.; 8.; 8.; 8. ]);
  check "one odd probe moves nothing" [ 4.; 4.; 4.; 4.; 4. ]
    (scale ~window:2 [ 1.; 1.; 1.; 1.; 1.; 9.; 1.; 1.; 1.; 1. ] [ 4.; 4.; 4.; 4.; 4. ]);
  check "a window past either end is cut at it" [ 2.; 2.; 2. ]
    (scale ~window:5 [ 2.; 2.; 2.; 2.; 2.; 2. ] [ 4.; 4.; 4. ]);
  Alcotest.check_raises "two probes per call"
    (Invalid_argument "Stats.scale_to_reference") (fun () ->
      ignore (scale ~window:1 [ 1.; 1.; 1. ] [ 1.; 1. ]))

let span ~id ~parent ~layer ~start ~stop delta =
  { Spans.id; name = layer; layer; op = 0; parent; start; stop; delta }

let self_time () =
  let spans =
    [
      span ~id:0 ~parent:(-1) ~layer:"bench" ~start:0. ~stop:10. [| 0 |];
      span ~id:1 ~parent:0 ~layer:"seccloud" ~start:1. ~stop:4. [| 0 |];
      span ~id:2 ~parent:0 ~layer:"seccloud" ~start:5. ~stop:9. [| 0 |];
      span ~id:3 ~parent:2 ~layer:"sc_storage" ~start:6. ~stop:7. [| 0 |];
    ]
  in
  let self = List.map (fun (s, t) -> s.Spans.id, t) (Spans.self_times spans) in
  Alcotest.check floats "root" 3. (List.assoc 0 self);
  Alcotest.check floats "leaf" 3. (List.assoc 1 self);
  Alcotest.check floats "middle" 3. (List.assoc 2 self);
  Alcotest.check floats "inner leaf" 1. (List.assoc 3 self)

let attribution_adds_up () =
  (* One probe, 1 s per count.  Root 0 (6 s, 3 counts) holds a 3 s
     child with 2 of those counts; root 2 claims 5 counts in 1 s. *)
  let spans =
    [
      span ~id:0 ~parent:(-1) ~layer:"bench" ~start:0. ~stop:6. [| 3 |];
      span ~id:1 ~parent:0 ~layer:"seccloud" ~start:1. ~stop:4. [| 2 |];
      span ~id:2 ~parent:(-1) ~layer:"bench" ~start:7. ~stop:8. [| 5 |];
    ]
  in
  let shares =
    Spans.attribute ~total:10. ~prim_layers:[| "sc_ec" |] ~costs:[| 1. |] spans
  in
  let get k = Option.value ~default:0. (List.assoc_opt k shares) in
  (* child: 3 s self, 2 s of probed work; root 0: 3 s self, 1 count;
     root 2: 1 s self but 5 counts, scaled down to fit. *)
  Alcotest.check floats "seccloud" 1. (get "seccloud");
  Alcotest.check floats "sc_ec" 4. (get "sc_ec");
  Alcotest.check floats "bench" 2. (get "bench");
  Alcotest.check floats "other" 3. (get "other");
  Alcotest.check floats "sum is the traced time" 10.
    (List.fold_left (fun a (_, v) -> a +. v) 0. shares)

let open_loop () =
  let q = Stats.Open_loop.create 2 in
  (* Due at 1.0 but sent late, at 1.3; a drain that started before the
     send does not answer it, the one returning at 1.5 does: 0.5 s from
     the due time, not 0.2 from the send. *)
  Alcotest.check floats "lateness" 0.3 (Stats.Open_loop.sent q ~key:0 ~due:1.0 ~now:1.3 "a");
  ignore (Stats.Open_loop.sent q ~key:1 ~due:1.1 ~now:1.3 "b");
  ignore (Stats.Open_loop.sent q ~key:0 ~due:1.2 ~now:1.3 "c");
  let answer key now = Stats.Open_loop.answered q ~key ~now in
  let item, lat = answer 0 1.5 in
  Alcotest.(check string) "oldest of its key first" "a" item;
  Alcotest.check floats "from due time" 0.5 lat;
  let item, lat = answer 0 1.5 in
  Alcotest.(check string) "then the next" "c" item;
  Alcotest.check floats "each from its own due time" 0.3 lat;
  let item, lat = answer 1 1.6 in
  Alcotest.(check string) "keys apart" "b" item;
  Alcotest.check floats "other key" 0.5 lat

let backlog () =
  let steady = Array.init 30 (fun i -> float_of_int i, 5 + (i mod 3)) in
  let growing = Array.init 30 (fun i -> float_of_int i, 5 + (4 * i)) in
  Alcotest.(check bool) "steady" false (Stats.backlog_growing steady);
  Alcotest.(check bool) "growing" true (Stats.backlog_growing growing);
  Alcotest.(check bool) "slack absorbs small growth" false
    (Stats.backlog_growing ~slack:200 growing);
  Alcotest.(check bool) "too few samples" false
    (Stats.backlog_growing (Array.sub growing 0 5))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail has ten samples beyond" `Quick tail_needs_ten_beyond;
          Alcotest.test_case "nearest-rank quantiles" `Quick quantiles;
          Alcotest.test_case "open-loop latency from due time" `Quick open_loop;
          Alcotest.test_case "backlog growth" `Quick backlog;
          Alcotest.test_case "scaling to reference speed" `Quick reference_speed;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick self_time;
          Alcotest.test_case "attribution adds up" `Quick attribution_adds_up;
        ] );
    ]
