(** Client-side Data Signing (§V-B1).

    For each block the user produces the raw identity-based signature
    (U_i, V_i), then publishes the designated forms Σ_i = ê(V_i, Q_CS)
    and Σ'_i = ê(V_i, Q_DA) and discards V_i — only the cloud server
    and the designated agency can verify, which is the
    privacy-cheating-discouragement mechanism.  V_i = k_i·sk_ID is
    never formed here: Σ_i = ê(sk_ID, Q_CS)^(k_i) is read off the
    owner's {!Sc_ibc.Dvs.table}, with the same bits. *)

type signed_block = {
  block : Block.t;
  u : Sc_ec.Curve.point;
  sigma_cs : Sc_pairing.Tate.gt; (* designated to the cloud server *)
  sigma_da : Sc_pairing.Tate.gt; (* designated to the agency *)
}

type upload = { file : string; owner : string; blocks : signed_block array }

val sign_designated :
  Sc_ibc.Setup.public ->
  Sc_ibc.Setup.identity_key ->
  bytes_source:(int -> string) ->
  cs:Sc_ibc.Dvs.table ->
  da:Sc_ibc.Dvs.table ->
  string ->
  Sc_ec.Curve.point * Sc_pairing.Tate.gt * Sc_pairing.Tate.gt
(** [(U, Σ_CS, Σ_DA)] for one message: the nonce of
    {!Sc_ibc.Ibs.sign}, drawn in the same order, designated through the
    owner's tables for the cloud server and the agency.  No pairing,
    no generic scalar multiplication. *)

val sign_file :
  Sc_ibc.Setup.public ->
  Sc_ibc.Setup.identity_key ->
  bytes_source:(int -> string) ->
  cs_id:string ->
  da_id:string ->
  file:string ->
  string list ->
  upload
(** Signs every payload of the file.  After this call the user can
    delete the local copy (the paper's flow).  Builds the two
    designation tables per call (two pairings in all, whatever the
    block count) and drops them. *)

val dvs_for : [ `Cs | `Da ] -> signed_block -> Sc_ibc.Dvs.t
(** Project the stored designated signature for one verifier. *)

val verifier :
  Sc_ibc.Setup.public ->
  verifier_key:Sc_ibc.Setup.identity_key ->
  role:[ `Cs | `Da ] ->
  owner:string ->
  Block.t ->
  signed_block ->
  bool
(** {!verify_block} for many blocks of one owner: applied to the keys,
    role and owner it hashes H1(owner) once, then checks each block
    with one pairing. *)

val verify_block :
  Sc_ibc.Setup.public ->
  verifier_key:Sc_ibc.Setup.identity_key ->
  role:[ `Cs | `Da ] ->
  owner:string ->
  Block.t ->
  signed_block ->
  bool
(** Equation (5)/(7): designated verification of one stored block
    against the payload the server claims for it — the one-block case
    of {!verifier}. *)
