(* The abstract value domain of the combined analysis: for each register
   (and heap location) we track, simultaneously,

   - the set of string constants it may hold (string constant propagation,
     with a top element for unbounded sets),
   - the intent allocation sites it may point to,
   - whether it may be the component's *incoming* intent,
   - the taint set: the sensitive resources its contents derive from, and
   - the permission checks whose result it may hold (feeding the
     permission-guard analysis).

   All facets join by union.  The string facet is kept canonical: top
   carries no strings ([str_top] implies [strs] is empty), so top is a
   single element that absorbs every join.  With strings capped at
   [max_strings] and every other facet drawn from finite sets (program
   constants, allocation sites, resources), the product lattice has
   finite height.  Without the canonical form, top{} and top{x} would be
   distinct elements and a joined cell could keep growing and collapsing
   forever. *)

module SS = Set.Make (String)

module RS = Set.Make (struct
  type t = Separ_android.Resource.t

  let compare = Separ_android.Resource.compare
end)

module IS = Set.Make (Int)

let max_strings = 8

type t = {
  strs : SS.t;
  str_top : bool;
  sites : IS.t;        (* intent allocation sites (global numbering) *)
  incoming : bool;     (* may be the intent that started the component *)
  taints : RS.t;
  perm_checks : SS.t;  (* permission names whose check result this holds *)
}

let bot =
  {
    strs = SS.empty;
    str_top = false;
    sites = IS.empty;
    incoming = false;
    taints = RS.empty;
    perm_checks = SS.empty;
  }

let of_string s = { bot with strs = SS.singleton s }
let str_top = { bot with str_top = true }
let of_site i = { bot with sites = IS.singleton i }
let incoming_intent = { bot with incoming = true }
let of_taints rs = { bot with taints = RS.of_list rs }
let of_taint_set taints = { bot with taints }
let of_perm_check p = { bot with perm_checks = SS.singleton p }
let with_str_top v = { v with strs = SS.empty; str_top = true }

(* [leq a b]: [a] adds nothing to [b]. *)
let leq a b =
  (b.str_top || ((not a.str_top) && SS.subset a.strs b.strs))
  && ((not a.incoming) || b.incoming)
  && IS.subset a.sites b.sites
  && RS.subset a.taints b.taints
  && SS.subset a.perm_checks b.perm_checks

(* Returns an operand itself when it already covers the other, so callers
   can detect "nothing grew" by physical equality. *)
let join a b =
  if a == b || leq b a then a
  else if leq a b then b
  else
    let str_top = a.str_top || b.str_top in
    let strs = if str_top then SS.empty else SS.union a.strs b.strs in
    let overflow = SS.cardinal strs > max_strings in
    {
      strs = (if overflow then SS.empty else strs);
      str_top = str_top || overflow;
      sites = IS.union a.sites b.sites;
      incoming = a.incoming || b.incoming;
      taints = RS.union a.taints b.taints;
      perm_checks = SS.union a.perm_checks b.perm_checks;
    }

let equal a b =
  a == b
  || SS.equal a.strs b.strs && a.str_top = b.str_top
     && IS.equal a.sites b.sites
     && a.incoming = b.incoming
     && RS.equal a.taints b.taints
     && SS.equal a.perm_checks b.perm_checks

(* The resolved strings: [None] when the value is statically unknown. *)
let strings v = if v.str_top then None else Some (SS.elements v.strs)

let add_taints v rs = { v with taints = RS.union v.taints (RS.of_list rs) }
let taint_list v = RS.elements v.taints
let is_bot v = equal v bot
