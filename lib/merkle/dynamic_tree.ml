(* Kept only because the per-layer benchmark units still name
   [Sc_merkle.Dynamic_tree]; it is the one tree, {!Tree}. *)
include Tree
