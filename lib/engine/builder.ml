module Layout = Dnstree.Layout

(* The in-production DNS authoritative engine, in Golite.

   One parameterized builder generates every version of Table 2/3: the
   [config] selects the feature set (v2.0's rewritten additional module,
   v3.0's SRV support, dev's ENT fix) and which seeded bugs are present.
   The code deliberately reproduces the in-production idioms the paper
   wrestles with (§3.3, §3.4): control flags threaded through calls,
   integer action codes instead of sum types, direct access to
   NodeStack.level from outside the stack module (Figure 3), and raw
   index arithmetic over fixed-capacity arrays. *)

type config = {
  version : string;
  bugs : Bugs.flags;
  has_srv : bool; (* v3.0+: SRV additional-section processing *)
}

(* Layer classification for the DNS-V pipeline (Figure 5): yellow layers
   get manual specifications; of the blue layers, those whose summaries
   are reused on at least 2/3 of their calls are summarized, and the
   rest (findRRSetForQuery, appendSetAsAnswers, glueForTarget,
   additionalForSet, answerAt, wildcardLookup) are inlined, since a
   summary miss costs more than the inlined call. test_symex's
   "summarized set = measured reuse" measures the reuse of all eleven. *)
let manual_layers =
  [
    "compareNames"; "nameOrder"; "copyNameInto"; "stackPush"; "findRRSet";
    "appendAnswer"; "appendAuthority"; "appendAdditional";
  ]

let summarized_layers =
  [
    "isDelegation"; "findWildcardChild"; "treeSearch"; "appendSOAAuthority";
    "buildReferral";
  ]

let maxl = Layout.max_labels
let maxrr = Layout.max_rrs
let maxadd = Layout.max_additional

(* rtype codes (match Dns.Rr.rtype_code) *)
let c_a = 1
let c_ns = 2
let c_cname = 5
let c_soa = 6
let c_mx = 15
let c_txt = 16
let c_aaaa = 28
let c_srv = 33

(* rcodes *)
let rc_noerror = 0
let rc_servfail = 2
let rc_nxdomain = 3
let rc_refused = 5

let cname_chain_budget = 8

open Golite.Dsl

let tnode = tstruct "TreeNode"
let pnode = tptr tnode
let tname = tarray tint maxl
let presp = tptr (tstruct "Response")
let prdata = tptr (tstruct "Rdata")
let prrset = tptr (tstruct "RRSet")
let pstack = tptr (tstruct "NodeStack")
let pres = tptr (tstruct "SearchResult")

(* ------------------------------------------------------------------ *)
(* Name layer (manual specs in the pipeline)                          *)
(* ------------------------------------------------------------------ *)

(* compareNames(a, alen, b, blen): NOMATCH / EXACTMATCH / PARTIALMATCH.
   PARTIAL means b is a proper ancestor of a (names as reversed label
   code arrays). The abstract counterpart is Spec's compareAbs; the raw
   byte-level compareRaw lives in Name_raw and is verified equivalent. *)
let fn_compare_names =
  func "compareNames"
    ~params:[ ("a", tname); ("alen", tint); ("b", tname); ("blen", tint) ]
    ~ret:(Some tint)
    [
      when_ (v "alen" < v "blen") [ return (i Layout.nomatch) ];
      decl_init "k" tint (i 0);
      while_ (v "k" < v "blen")
        [
          when_ (v "a" %@ v "k" != v "b" %@ v "k") [ return (i Layout.nomatch) ];
          set "k" (v "k" + i 1);
        ];
      when_ (v "alen" == v "blen") [ return (i Layout.exactmatch) ];
      return (i Layout.partialmatch);
    ]

(* Lexicographic order over reversed code arrays: -1 / 0 / 1. *)
let fn_name_order =
  func "nameOrder"
    ~params:[ ("a", tname); ("alen", tint); ("b", tname); ("blen", tint) ]
    ~ret:(Some tint)
    [
      decl_init "k" tint (i 0);
      while_ (v "k" < v "alen" && v "k" < v "blen")
        [
          when_ (v "a" %@ v "k" < v "b" %@ v "k") [ return (i (-1)) ];
          when_ (v "a" %@ v "k" > v "b" %@ v "k") [ return (i 1) ];
          set "k" (v "k" + i 1);
        ];
      when_ (v "alen" < v "blen") [ return (i (-1)) ];
      when_ (v "alen" > v "blen") [ return (i 1) ];
      return (i 0);
    ]

let fn_copy_name_into =
  func "copyNameInto"
    ~params:[ ("dst", tname); ("src", tname); ("n", tint) ]
    ~ret:None
    [
      decl_init "k" tint (i 0);
      while_ (v "k" < v "n")
        [ set_index (v "dst") (v "k") (v "src" %@ v "k"); set "k" (v "k" + i 1) ];
      return_void;
    ]

(* ------------------------------------------------------------------ *)
(* NodeStack — the Figure-3 pattern: push encapsulates the store, but
   the level field is read and incremented directly by callers.       *)
(* ------------------------------------------------------------------ *)

let fn_stack_push =
  func "stackPush"
    ~params:[ ("s", tptr (tstruct "NodeStack")); ("n", pnode) ]
    ~ret:None
    [ set_index (v "s" %. "nodes") (v "s" %. "level") (v "n"); return_void ]

(* ------------------------------------------------------------------ *)
(* RRSet layer                                                        *)
(* ------------------------------------------------------------------ *)

let fn_find_rrset =
  func "findRRSet"
    ~params:[ ("node", pnode); ("rtype", tint) ]
    ~ret:(Some tint)
    [
      decl_init "k" tint (i 0);
      while_ (v "k" < v "node" %. "nsets")
        [
          when_ (v "node" %. "rrsets" %@ v "k" %. "rtype" == v "rtype")
            [ return (v "k") ];
          set "k" (v "k" + i 1);
        ];
      return (i (-1));
    ]

(* The query-facing rrset lookup, where bug 3 lives: the v1.0 match
   table confuses the MX type constant with TXT's. *)
let fn_find_rrset_for_query (cfg : config) =
  func "findRRSetForQuery"
    ~params:[ ("node", pnode); ("qtype", tint) ]
    ~ret:(Some tint)
    ([ decl_init "want" tint (v "qtype") ]
    @ (if cfg.bugs.Bugs.bug3_mx_type_confusion then
         [ when_ (v "qtype" == i c_mx) [ set "want" (i c_txt) ] ]
       else [])
    @ [ return (call "findRRSet" [ v "node"; v "want" ]) ])

let fn_is_delegation =
  func "isDelegation"
    ~params:[ ("node", pnode); ("root", pnode) ]
    ~ret:(Some tbool)
    [
      when_ (v "node" == v "root") [ return (b false) ];
      return (call "findRRSet" [ v "node"; i c_ns ] >= i 0);
    ]

(* ------------------------------------------------------------------ *)
(* TreeSearch (summarized layer; §6.4)                                *)
(* ------------------------------------------------------------------ *)

let fn_tree_search =
  func "treeSearch"
    ~params:
      [
        ("root", pnode); ("s", pstack); ("res", pres); ("qname", tname);
        ("qlen", tint); ("stopAtDelegation", tbool);
      ]
    ~ret:None
    [
      decl_init "cur" pnode (v "root");
      decl_init "closest" pnode (v "root");
      while_
        (v "cur" != nil tnode)
        [
          decl_init "cmp" tint
            (call "compareNames"
               [ v "qname"; v "qlen"; v "cur" %. "labels"; v "cur" %. "labelsLen" ]);
          if_ (v "cmp" == i Layout.exactmatch)
            [
              expr (call "stackPush" [ v "s"; v "cur" ]);
              set_field (v "s") "level" (v "s" %. "level" + i 1);
              set_field (v "res") "node" (v "cur");
              set_field (v "res") "kind" (i Layout.k_exact);
              return_void;
            ]
            [
              if_ (v "cmp" == i Layout.partialmatch)
                [
                  expr (call "stackPush" [ v "s"; v "cur" ]);
                  set_field (v "s") "level" (v "s" %. "level" + i 1);
                  set "closest" (v "cur");
                  (* The walk may terminate at a delegation node: further
                     resolution is not ours (§6.4's input flag). *)
                  when_
                    (v "stopAtDelegation"
                    && call "isDelegation" [ v "cur"; v "root" ])
                    [
                      set_field (v "res") "node" (v "cur");
                      set_field (v "res") "kind" (i Layout.k_delegation);
                      return_void;
                    ];
                  set "cur" (v "cur" %. "down");
                ]
                [
                  decl_init "ord" tint
                    (call "nameOrder"
                       [
                         v "qname"; v "qlen"; v "cur" %. "labels";
                         v "cur" %. "labelsLen";
                       ]);
                  if_ (v "ord" < i 0)
                    [ set "cur" (v "cur" %. "left") ]
                    [ set "cur" (v "cur" %. "right") ];
                ];
            ];
        ];
      set_field (v "res") "node" (v "closest");
      set_field (v "res") "kind" (i Layout.k_closest);
      return_void;
    ]

(* Wildcard child scan: correct code walks the sibling BST to its
   leftmost node ('*' has the smallest label code); bug 6 only inspects
   the BST root. *)
let fn_find_wildcard_child (cfg : config) =
  func "findWildcardChild"
    ~params:[ ("node", pnode) ]
    ~ret:(Some pnode)
    ([ decl_init "c" pnode (v "node" %. "down");
       when_ (v "c" == nil tnode) [ return (nil tnode) ] ]
    @ (if cfg.bugs.Bugs.bug6_wildcard_scan_shallow then []
       else
         [
           while_
             (v "c" %. "left" != nil tnode)
             [ set "c" (v "c" %. "left") ];
         ])
    @ [
        when_ (v "c" %. "isWildcard") [ return (v "c") ];
        return (nil tnode);
      ])

(* ------------------------------------------------------------------ *)
(* Response section appends (manual-spec layers)                      *)
(* ------------------------------------------------------------------ *)

(* Append one record built from (rname, rtype, rdata) to a section.
   Capacity overflow drops the record: the additional section is
   best-effort (like a UDP-limited responder); answer/authority never
   reach the cap under the chase budget. *)
let append_fn fn_name ~count_field ~section_field ~cap =
  func fn_name
    ~params:
      [
        ("resp", presp); ("rname", tname); ("rnameLen", tint); ("rtype", tint);
        ("rd", prdata);
      ]
    ~ret:None
    [
      decl_init "idx" tint (v "resp" %. count_field);
      when_ (v "idx" >= i cap) [ return_void ];
      decl_init "slot" (tptr (tstruct "RR")) (v "resp" %. section_field %@ v "idx");
      expr (call "copyNameInto" [ v "slot" %. "rname"; v "rname"; v "rnameLen" ]);
      set_field (v "slot") "rnameLen" (v "rnameLen");
      set_field (v "slot") "rtype" (v "rtype");
      expr
        (call "copyNameInto"
           [ v "slot" %. "target"; v "rd" %. "target"; v "rd" %. "targetLen" ]);
      set_field (v "slot") "targetLen" (v "rd" %. "targetLen");
      set_field (v "slot") "hasTarget" (v "rd" %. "hasTarget");
      set_field (v "slot") "dataId" (v "rd" %. "dataId");
      set_field (v "resp") count_field (v "idx" + i 1);
      return_void;
    ]

let fn_append_answer =
  append_fn "appendAnswer" ~count_field:"nanswer" ~section_field:"answer"
    ~cap:maxrr

let fn_append_authority =
  append_fn "appendAuthority" ~count_field:"nauthority"
    ~section_field:"authority" ~cap:maxrr

let fn_append_additional =
  append_fn "appendAdditional" ~count_field:"nadditional"
    ~section_field:"additional" ~cap:maxadd

(* Append a whole rrset as answers owned by [owner]. *)
let fn_append_set_as_answers =
  func "appendSetAsAnswers"
    ~params:
      [ ("resp", presp); ("owner", tname); ("ownerLen", tint); ("set", prrset) ]
    ~ret:None
    [
      decl_init "k" tint (i 0);
      while_ (v "k" < v "set" %. "count")
        [
          expr
            (call "appendAnswer"
               [
                 v "resp"; v "owner"; v "ownerLen"; v "set" %. "rtype";
                 v "set" %. "rdatas" %@ v "k";
               ]);
          set "k" (v "k" + i 1);
        ];
      return_void;
    ]

let fn_append_soa_authority =
  func "appendSOAAuthority"
    ~params:[ ("resp", presp); ("root", pnode) ]
    ~ret:None
    [
      decl_init "si" tint (call "findRRSet" [ v "root"; i c_soa ]);
      when_ (v "si" >= i 0)
        [
          expr
            (call "appendAuthority"
               [
                 v "resp"; v "root" %. "labels"; v "root" %. "labelsLen";
                 i c_soa; v "root" %. "rrsets" %@ v "si" %. "rdatas" %@ i 0;
               ]);
        ];
      return_void;
    ]

(* v1.0's extraneous-authority habit (bug 2): apex NS records appended
   to the authority section of positive answers. *)
let fn_append_apex_ns =
  func "appendApexNS"
    ~params:[ ("resp", presp); ("root", pnode) ]
    ~ret:None
    [
      decl_init "ni" tint (call "findRRSet" [ v "root"; i c_ns ]);
      when_ (v "ni" >= i 0)
        [
          decl_init "k" tint (i 0);
          while_ (v "k" < v "root" %. "rrsets" %@ v "ni" %. "count")
            [
              expr
                (call "appendAuthority"
                   [
                     v "resp"; v "root" %. "labels"; v "root" %. "labelsLen";
                     i c_ns; v "root" %. "rrsets" %@ v "ni" %. "rdatas" %@ v "k";
                   ]);
              set "k" (v "k" + i 1);
            ];
        ];
      return_void;
    ]

(* ------------------------------------------------------------------ *)
(* Glue and additional-section processing (summarized layers)         *)
(* ------------------------------------------------------------------ *)

(* In-zone A/AAAA records of [target], appended to the additional
   section. Glue lives below cuts, so this search does not stop at
   delegations. *)
let fn_glue_for_target =
  func "glueForTarget"
    ~params:[ ("root", pnode); ("resp", presp); ("target", tname); ("tlen", tint) ]
    ~ret:None
    [
      when_
        (call "compareNames"
           [ v "target"; v "tlen"; v "root" %. "labels"; v "root" %. "labelsLen" ]
        == i Layout.nomatch)
        [ return_void ];
      decl_init "stk" pstack (new_ (tstruct "NodeStack"));
      decl_init "res" pres (new_ (tstruct "SearchResult"));
      expr
        (call "treeSearch"
           [ v "root"; v "stk"; v "res"; v "target"; v "tlen"; b false ]);
      when_ (v "res" %. "kind" != i Layout.k_exact) [ return_void ];
      decl_init "node" pnode (v "res" %. "node");
      decl_init "ai" tint (call "findRRSet" [ v "node"; i c_a ]);
      when_ (v "ai" >= i 0)
        [
          decl_init "k" tint (i 0);
          while_ (v "k" < v "node" %. "rrsets" %@ v "ai" %. "count")
            [
              expr
                (call "appendAdditional"
                   [
                     v "resp"; v "node" %. "labels"; v "node" %. "labelsLen";
                     i c_a; v "node" %. "rrsets" %@ v "ai" %. "rdatas" %@ v "k";
                   ]);
              set "k" (v "k" + i 1);
            ];
        ];
      decl_init "bi" tint (call "findRRSet" [ v "node"; i c_aaaa ]);
      when_ (v "bi" >= i 0)
        [
          decl_init "k2" tint (i 0);
          while_ (v "k2" < v "node" %. "rrsets" %@ v "bi" %. "count")
            [
              expr
                (call "appendAdditional"
                   [
                     v "resp"; v "node" %. "labels"; v "node" %. "labelsLen";
                     i c_aaaa; v "node" %. "rrsets" %@ v "bi" %. "rdatas" %@ v "k2";
                   ]);
              set "k2" (v "k2" + i 1);
            ];
        ];
      return_void;
    ]

(* Additional-section processing for a positive answer set: chase the
   rdata targets of MX / NS (and SRV from v3.0 on), skipping targets
   occluded by a delegation cut. Bug 7 drops the occlusion check; bug 5
   skips the whole pass for wildcard-synthesized answers. *)
let fn_additional_for_set (cfg : config) =
  let wants_additional =
    let base = v "set" %. "rtype" == i c_mx || v "set" %. "rtype" == i c_ns in
    if cfg.has_srv then base || v "set" %. "rtype" == i c_srv else base
  in
  let glue_call =
    if cfg.bugs.Bugs.bug7_glue_ignores_cuts then
      [
        expr
          (call "glueForTarget"
             [ v "root"; v "resp"; v "rd" %. "target"; v "rd" %. "targetLen" ]);
      ]
    else
      [
        when_
          (call "compareNames"
             [
               v "rd" %. "target"; v "rd" %. "targetLen"; v "root" %. "labels";
               v "root" %. "labelsLen";
             ]
          != i Layout.nomatch)
          [
            decl_init "stk" pstack (new_ (tstruct "NodeStack"));
            decl_init "res" pres (new_ (tstruct "SearchResult"));
            expr
              (call "treeSearch"
                 [
                   v "root"; v "stk"; v "res"; v "rd" %. "target";
                   v "rd" %. "targetLen"; b true;
                 ]);
            decl_init "occluded" tbool (v "res" %. "kind" == i Layout.k_delegation);
            when_
              (v "res" %. "kind" == i Layout.k_exact
              && call "isDelegation" [ v "res" %. "node"; v "root" ])
              [ set "occluded" (b true) ];
            when_ (not_ (v "occluded"))
              [
                expr
                  (call "glueForTarget"
                     [ v "root"; v "resp"; v "rd" %. "target"; v "rd" %. "targetLen" ]);
              ];
          ];
      ]
  in
  func "additionalForSet"
    ~params:
      [ ("root", pnode); ("resp", presp); ("set", prrset); ("viaWildcard", tbool) ]
    ~ret:None
    ((if cfg.bugs.Bugs.bug5_wildcard_no_additional then
        [ when_ (v "viaWildcard") [ return_void ] ]
      else [])
    @ [
        when_ (not_ wants_additional) [ return_void ];
        decl_init "k" tint (i 0);
        while_ (v "k" < v "set" %. "count")
          ([ decl_init "rd" prdata (v "set" %. "rdatas" %@ v "k") ]
          @ [ when_ (v "rd" %. "hasTarget") glue_call ]
          @ [ set "k" (v "k" + i 1) ]);
        return_void;
      ])

(* Referral construction at a delegation cut: NS records into the
   authority section, then glue per target (bug 4 visits only the
   first). *)
let fn_build_referral (cfg : config) =
  let glue_limit =
    if cfg.bugs.Bugs.bug4_glue_first_only then i 1 else v "set" %. "count"
  in
  func "buildReferral"
    ~params:[ ("root", pnode); ("resp", presp); ("cut", pnode) ]
    ~ret:None
    [
      decl_init "ni" tint (call "findRRSet" [ v "cut"; i c_ns ]);
      when_ (v "ni" < i 0)
        [ set_field (v "resp") "rcode" (i rc_servfail); return_void ];
      decl_init "set" prrset (v "cut" %. "rrsets" %@ v "ni");
      decl_init "k" tint (i 0);
      while_ (v "k" < v "set" %. "count")
        [
          expr
            (call "appendAuthority"
               [
                 v "resp"; v "cut" %. "labels"; v "cut" %. "labelsLen"; i c_ns;
                 v "set" %. "rdatas" %@ v "k";
               ]);
          set "k" (v "k" + i 1);
        ];
      decl_init "g" tint (i 0);
      while_ (v "g" < glue_limit)
        [
          decl_init "rd" prdata (v "set" %. "rdatas" %@ v "g");
          when_ (v "rd" %. "hasTarget")
            [
              expr
                (call "glueForTarget"
                   [ v "root"; v "resp"; v "rd" %. "target"; v "rd" %. "targetLen" ]);
            ];
          set "g" (v "g" + i 1);
        ];
      set_field (v "resp") "rcode" (i rc_noerror);
      return_void;
    ]

(* ------------------------------------------------------------------ *)
(* Node answering: exact or wildcard-synthesized (summarized layer).
   Returns an integer action code, in true in-production style (§3.3):
     -2            response complete;
     n >= 0        follow a CNAME whose target (length n) has been
                   copied into [owner]. *)
(* ------------------------------------------------------------------ *)

let fn_answer_at (cfg : config) =
  let body =
    [
      (* CNAME present and not asked for: answer it and chase. *)
      decl_init "ci" tint (call "findRRSet" [ v "node"; i c_cname ]);
      when_ (v "ci" >= i 0 && v "qtype" != i c_cname)
        [
          decl_init "rd" prdata (v "node" %. "rrsets" %@ v "ci" %. "rdatas" %@ i 0);
          expr
            (call "appendAnswer"
               [ v "resp"; v "owner"; v "ownerLen"; i c_cname; v "rd" ]);
          set_field (v "resp") "aa" (b true);
          when_
            (call "compareNames"
               [
                 v "rd" %. "target"; v "rd" %. "targetLen"; v "root" %. "labels";
                 v "root" %. "labelsLen";
               ]
            == i Layout.nomatch)
            [
              (* Out-of-zone target: the recursor takes over. *)
              set_field (v "resp") "rcode" (i rc_noerror);
              return (i (-2));
            ];
          expr
            (call "copyNameInto" [ v "owner"; v "rd" %. "target"; v "rd" %. "targetLen" ]);
          return (v "rd" %. "targetLen");
        ];
      decl_init "ti" tint (call "findRRSetForQuery" [ v "node"; v "qtype" ]);
      when_ (v "ti" >= i 0)
        ([
           decl_init "set" prrset (v "node" %. "rrsets" %@ v "ti");
           expr
             (call "appendSetAsAnswers"
                [ v "resp"; v "owner"; v "ownerLen"; v "set" ]);
           set_field (v "resp") "aa" (b true);
           set_field (v "resp") "rcode" (i rc_noerror);
           expr
             (call "additionalForSet"
                [ v "root"; v "resp"; v "set"; v "viaWildcard" ]);
         ]
        @ (if cfg.bugs.Bugs.bug2_extraneous_authority then
             [ expr (call "appendApexNS" [ v "resp"; v "root" ]) ]
           else [])
        @ [ return (i (-2)) ]);
      (* NODATA *)
      expr (call "appendSOAAuthority" [ v "resp"; v "root" ]);
      set_field (v "resp") "rcode" (i rc_noerror);
    ]
    @ (if cfg.bugs.Bugs.bug1_missing_aa_on_nodata then []
       else [ set_field (v "resp") "aa" (b true) ])
    @ [ return (i (-2)) ]
  in
  func "answerAt"
    ~params:
      [
        ("root", pnode); ("resp", presp); ("node", pnode); ("owner", tname);
        ("ownerLen", tint); ("qtype", tint); ("viaWildcard", tbool);
      ]
    ~ret:(Some tint) body

(* Wildcard lookup at the closest encloser. Action codes:
     -1   no wildcard (caller answers NXDOMAIN);
     else as answerAt. Dev's bug-9 peek dereferences an off-by-one
   stack slot on multi-label expansions. *)
let fn_wildcard_lookup (cfg : config) =
  func "wildcardLookup"
    ~params:
      [
        ("root", pnode); ("resp", presp); ("encloser", pnode); ("owner", tname);
        ("ownerLen", tint); ("qtype", tint); ("stk", pstack);
      ]
    ~ret:(Some tint)
    ([
       decl_init "wc" pnode (call "findWildcardChild" [ v "encloser" ]);
       when_ (v "wc" == nil tnode) [ return (i (-1)) ];
     ]
    @ (if cfg.bugs.Bugs.bug9_stack_peek_nil then
         [
           (* The incomplete bug-8 fix: on multi-label expansions,
              consult the traversal stack — with the wrong index. The
              slot at [level] was never written, so the node pointer is
              nil and the field read panics. *)
           when_
             (v "ownerLen" > v "encloser" %. "labelsLen" + i 1)
             [
               decl_init "top" pnode
                 (v "stk" %. "nodes" %@ (v "stk" %. "level"));
               when_ (v "top" %. "labelsLen" < i 0) [ return (i (-1)) ];
             ];
         ]
       else [])
    @ [
        return
          (call "answerAt"
             [
               v "root"; v "resp"; v "wc"; v "owner"; v "ownerLen"; v "qtype";
               b true;
             ]);
      ])

(* ------------------------------------------------------------------ *)
(* Resolve — the top-level entry point                                *)
(* ------------------------------------------------------------------ *)

let fn_resolve (cfg : config) =
  let dispatch_action =
    (* Shared handling of answerAt/wildcardLookup action codes inside the
       chase loop. The action variable is "act". *)
    [
      when_ (v "act" == i (-2)) [ return_void ];
      when_ (v "act" == i (-1))
        [
          set_field (v "resp") "rcode" (i rc_nxdomain);
          expr (call "appendSOAAuthority" [ v "resp"; v "root" ]);
          set_field (v "resp") "aa" (b true);
          return_void;
        ];
      (* CNAME chase: act is the new owner length. *)
      set "budget" (v "budget" - i 1);
      when_ (v "budget" == i 0)
        [
          set_field (v "resp") "rcode" (i rc_servfail);
          set_field (v "resp") "aa" (b false);
          return_void;
        ];
      set "curLen" (v "act");
    ]
  in
  func "resolve"
    ~params:
      [
        ("root", pnode); ("resp", presp); ("qname", tname); ("qlen", tint);
        ("qtype", tint);
      ]
    ~ret:None
    [
      (* Out-of-zone queries are refused. *)
      when_
        (call "compareNames"
           [ v "qname"; v "qlen"; v "root" %. "labels"; v "root" %. "labelsLen" ]
        == i Layout.nomatch)
        [ set_field (v "resp") "rcode" (i rc_refused); return_void ];
      decl "curName" tname;
      expr (call "copyNameInto" [ v "curName"; v "qname"; v "qlen" ]);
      decl_init "curLen" tint (v "qlen");
      decl_init "budget" tint (i cname_chain_budget);
      while_ (b true)
        ([
           decl_init "stk" pstack (new_ (tstruct "NodeStack"));
           decl_init "res" pres (new_ (tstruct "SearchResult"));
           expr
             (call "treeSearch"
                [ v "root"; v "stk"; v "res"; v "curName"; v "curLen"; b true ]);
           decl_init "kind" tint (v "res" %. "kind");
           decl_init "node" pnode (v "res" %. "node");
           when_ (v "kind" == i Layout.k_delegation)
             [ expr (call "buildReferral" [ v "root"; v "resp"; v "node" ]); return_void ];
         ]
        @ [
            if_ (v "kind" == i Layout.k_exact)
              ([
                 when_
                   (call "isDelegation" [ v "node"; v "root" ])
                   [
                     expr (call "buildReferral" [ v "root"; v "resp"; v "node" ]);
                     return_void;
                   ];
               ]
              @ (if cfg.bugs.Bugs.bug8_ent_wildcard_judgment then
                   [
                     (* v3.0's misguided shortcut: an exact node without
                        data is treated as nonexistent, falling through
                        to wildcard synthesis / NXDOMAIN. *)
                     when_
                       (not_ (v "node" %. "hasData"))
                       ([
                          decl_init "act" tint
                            (call "wildcardLookup"
                               [
                                 v "root"; v "resp"; v "node"; v "curName";
                                 v "curLen"; v "qtype"; v "stk";
                               ]);
                        ]
                       @ dispatch_action
                       @ [ continue_ ]);
                   ]
                 else [])
              @ [
                  decl_init "act" tint
                    (call "answerAt"
                       [
                         v "root"; v "resp"; v "node"; v "curName"; v "curLen";
                         v "qtype"; b false;
                       ]);
                ]
              @ dispatch_action
              @ [ continue_ ])
              (* KCLOSEST: the name does not exist; try the wildcard. *)
              ([
                 decl_init "act" tint
                   (call "wildcardLookup"
                      [
                        v "root"; v "resp"; v "node"; v "curName"; v "curLen";
                        v "qtype"; v "stk";
                      ]);
               ]
              @ dispatch_action
              @ [ continue_ ]);
          ]);
      return_void;
    ]

(* ------------------------------------------------------------------ *)
(* Whole-program assembly                                             *)
(* ------------------------------------------------------------------ *)

let golite_program (cfg : config) : Golite.Ast.program =
  program Layout.structs
    [
      fn_compare_names;
      fn_name_order;
      fn_copy_name_into;
      fn_stack_push;
      fn_find_rrset;
      fn_find_rrset_for_query cfg;
      fn_is_delegation;
      fn_tree_search;
      fn_find_wildcard_child cfg;
      fn_append_answer;
      fn_append_authority;
      fn_append_additional;
      fn_append_set_as_answers;
      fn_append_soa_authority;
      fn_append_apex_ns;
      fn_glue_for_target;
      fn_additional_for_set cfg;
      fn_build_referral cfg;
      fn_answer_at cfg;
      fn_wildcard_lookup cfg;
      fn_resolve cfg;
    ]

let compile (cfg : config) : Minir.Instr.program =
  Golite.Compile.compile (golite_program cfg)
