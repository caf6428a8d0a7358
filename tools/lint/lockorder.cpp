#include "lockorder.h"

#include <algorithm>
#include <map>
#include <set>

namespace af::lint::lockorder {
namespace {

[[nodiscard]] bool is_punct(const Token& t, const char* s) {
  return t.kind == Tok::kPunct && t.text == s;
}

[[nodiscard]] std::string last_component(const std::string& qualified) {
  const std::size_t cut = qualified.rfind("::");
  return cut == std::string::npos ? qualified : qualified.substr(cut + 2);
}

[[nodiscard]] bool is_mutex_type(const std::string& type_head) {
  return last_component(type_head) == "Mutex";
}

[[nodiscard]] bool is_raii_lock_type(const std::string& name) {
  return name == "MutexLock" || name == "UniqueLock";
}

struct CallSite {
  std::size_t callee = 0;  // index into Model::functions()
  std::set<std::string> held;
  int line = 0;
};

struct FnSummary {
  std::set<std::string> direct;  // mutex ids acquired in this body
  std::set<std::string> total;   // closed over callees
  std::vector<CallSite> calls;
};

struct RawEdge {
  std::string from, to, file, via;
  int line = 0;
};

/// Walks one function body tracking held locks, direct acquisitions and
/// resolved call sites.
class BodyWalker {
 public:
  BodyWalker(const Model& model, const FunctionInfo& fn,
             const std::vector<Token>& toks,
             const std::map<std::string, std::string>& mutex_of_member,
             std::vector<RawEdge>& edges, FnSummary& summary)
      : model_(model), fn_(fn), toks_(toks),
        mutex_of_member_(mutex_of_member), edges_(edges), summary_(summary) {}

  void run() {
    // AF_REQUIRES capabilities are held at entry.
    for (const auto& cap : fn_.requires_caps) {
      if (const std::string id = resolve_mutex_name(cap); !id.empty()) {
        held_.push_back(Held{"", id, 0});
      }
    }
    int depth = 0;
    std::size_t i = fn_.body_begin;
    while (i < fn_.body_end) {
      const Token& t = toks_[i];
      if (!is_code(t)) {
        ++i;
        continue;
      }
      if (is_punct(t, "{")) {
        ++depth;
        ++i;
        continue;
      }
      if (is_punct(t, "}")) {
        --depth;
        while (!held_.empty() && held_.back().depth > depth) held_.pop_back();
        ++i;
        continue;
      }
      if (t.kind == Tok::kIdent) {
        i = handle_ident(i, depth);
        continue;
      }
      ++i;
    }
  }

 private:
  struct Held {
    std::string var;  // RAII variable name, "" for AF_REQUIRES / bare .lock()
    std::string mutex;
    int depth = 0;
  };
  struct Local {
    std::string name;
    std::string cls;  // resolved qualified class name
  };

  [[nodiscard]] std::size_t next_code(std::size_t i) const {
    for (++i; i < fn_.body_end; ++i) {
      if (is_code(toks_[i])) return i;
    }
    return fn_.body_end;
  }

  /// Resolves a member-name-style capability ("mu_", "order_mu_") against
  /// the enclosing class chain. Returns the qualified mutex id or "".
  [[nodiscard]] std::string resolve_mutex_name(const std::string& name) const {
    const auto it = mutex_of_member_.find(fn_.cls + "::" + name);
    if (it != mutex_of_member_.end()) return it->second;
    // Enclosing classes (an inner class naming an outer mutex).
    std::string probe = fn_.cls;
    while (true) {
      const std::size_t cut = probe.rfind("::");
      if (cut == std::string::npos) break;
      probe = probe.substr(0, cut);
      const auto it2 = mutex_of_member_.find(probe + "::" + name);
      if (it2 != mutex_of_member_.end()) return it2->second;
    }
    return "";
  }

  /// Resolves a dotted chain of identifiers (receiver tokens of a lock
  /// expression) to a mutex id: `mu_`, `s.mu`, `shard.inner.mu`.
  [[nodiscard]] std::string resolve_mutex_expr(
      const std::vector<std::string>& chain) const {
    if (chain.empty()) return "";
    if (chain.size() == 1) return resolve_mutex_name(chain[0]);
    // First element: local of known class type, or member object.
    std::string cls = class_of_name(chain[0]);
    for (std::size_t k = 1; k < chain.size() && !cls.empty(); ++k) {
      const MemberVar* m = model_.resolve_member(cls, chain[k]);
      if (m == nullptr) return "";
      if (k + 1 == chain.size()) {
        return is_mutex_type(m->type_head) ? cls + "::" + chain[k] : "";
      }
      const ClassInfo* next = model_.resolve_class(m->type_head);
      cls = next == nullptr ? "" : next->name;
    }
    return "";
  }

  /// Class of a name in scope: tracked local first, then member object of
  /// the enclosing class.
  [[nodiscard]] std::string class_of_name(const std::string& name) const {
    for (auto it = locals_.rbegin(); it != locals_.rend(); ++it) {
      if (it->name == name) return it->cls;
    }
    if (const MemberVar* m = model_.resolve_member(fn_.cls, name)) {
      const ClassInfo* c = model_.resolve_class(m->type_head);
      if (c != nullptr) return c->name;
    }
    return "";
  }

  void acquire(const std::string& var, const std::string& mutex, int depth,
               int line) {
    for (const Held& h : held_) {
      edges_.push_back(RawEdge{h.mutex, mutex, fn_.file,
                               fn_.cls.empty() ? fn_.name
                                               : fn_.cls + "::" + fn_.name,
                               line});
    }
    summary_.direct.insert(mutex);
    held_.push_back(Held{var, mutex, depth});
  }

  /// Handles the identifier at index i; returns the index to continue from.
  std::size_t handle_ident(std::size_t i, int depth) {
    const Token& t = toks_[i];

    // RAII lock declaration: MutexLock name(expr); / UniqueLock name(expr);
    if (is_raii_lock_type(t.text)) {
      const std::size_t n1 = next_code(i);
      if (n1 < fn_.body_end && toks_[n1].kind == Tok::kIdent) {
        const std::size_t n2 = next_code(n1);
        if (n2 < fn_.body_end && is_punct(toks_[n2], "(")) {
          std::vector<std::string> chain;
          std::size_t j = next_code(n2);
          while (j < fn_.body_end && !is_punct(toks_[j], ")")) {
            if (toks_[j].kind == Tok::kIdent) chain.push_back(toks_[j].text);
            j = next_code(j);
          }
          const std::string id = resolve_mutex_expr(chain);
          if (!id.empty()) acquire(toks_[n1].text, id, depth, t.line);
          return next_code(j);
        }
      }
      return next_code(i);
    }

    // Local declaration of a known class: [const] Cls[&*] name [=({;]
    if (const std::size_t after = try_local_decl(i); after != i) return after;

    // Dotted chain: recv(.recv)*.method( — collect it whole.
    std::vector<std::string> chain;
    chain.push_back(t.text);
    std::size_t j = next_code(i);
    while (j < fn_.body_end &&
           (is_punct(toks_[j], ".") || is_punct(toks_[j], "->"))) {
      const std::size_t n = next_code(j);
      if (n >= fn_.body_end || toks_[n].kind != Tok::kIdent) break;
      chain.push_back(toks_[n].text);
      j = next_code(n);
    }
    const bool is_call = j < fn_.body_end && is_punct(toks_[j], "(");
    if (!is_call) return next_code(i);
    const std::string& callee_name = chain.back();

    if (chain.size() >= 2 &&
        (callee_name == "lock" || callee_name == "unlock")) {
      handle_explicit_lock(chain, depth, t.line);
      return next_code(j);
    }
    record_call(chain, t.line);
    return next_code(j);
  }

  /// `var.lock()` / `var.unlock()` — either an RAII lock variable being
  /// toggled (condition-variable style) or a mutex member locked directly.
  void handle_explicit_lock(const std::vector<std::string>& chain, int depth,
                            int line) {
    const bool locking = chain.back() == "lock";
    const std::vector<std::string> recv(chain.begin(), chain.end() - 1);
    // RAII variable toggle: `lock.unlock(); verify(); lock.lock();` — the
    // released variable's mutex is remembered so the re-lock re-acquires it.
    if (recv.size() == 1) {
      for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
        if (it->var == recv[0]) {
          if (!locking) {
            released_[recv[0]] = it->mutex;
            held_.erase(std::next(it).base());
          }
          return;
        }
      }
    }
    if (locking) {
      const auto rel = released_.find(recv.size() == 1 ? recv[0] : "");
      if (rel != released_.end()) {
        acquire(rel->first, rel->second, depth, line);
        released_.erase(rel);
        return;
      }
      const std::string id = resolve_mutex_expr(recv);
      if (!id.empty()) acquire("", id, depth, line);
      return;
    }
    // Unlocking: drop a direct .lock() hold or remember an RAII release.
    const std::string id = resolve_mutex_expr(recv);
    for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
      if ((recv.size() == 1 && it->var == recv[0]) ||
          (!id.empty() && it->mutex == id && it->var.empty())) {
        if (recv.size() == 1) released_[recv[0]] = it->mutex;
        held_.erase(std::next(it).base());
        return;
      }
    }
  }

  [[nodiscard]] std::size_t try_local_decl(std::size_t i) {
    // [Q::]*Cls [&*]* name [=({;]  — records name -> class when Cls resolves.
    std::vector<std::string> qual;
    std::size_t j = i;
    while (j < fn_.body_end && toks_[j].kind == Tok::kIdent) {
      qual.push_back(toks_[j].text);
      const std::size_t n = next_code(j);
      if (n < fn_.body_end && is_punct(toks_[n], "::")) {
        j = next_code(n);
        continue;
      }
      j = n;
      break;
    }
    if (qual.empty()) return i;
    std::string type;
    for (const auto& q : qual) type += (type.empty() ? "" : "::") + q;
    const ClassInfo* cls = model_.resolve_class(type);
    if (cls == nullptr) return i;
    while (j < fn_.body_end &&
           (is_punct(toks_[j], "&") || is_punct(toks_[j], "*") ||
            (toks_[j].kind == Tok::kIdent && toks_[j].text == "const"))) {
      j = next_code(j);
    }
    if (j >= fn_.body_end || toks_[j].kind != Tok::kIdent) return i;
    const std::size_t after_name = next_code(j);
    if (after_name >= fn_.body_end) return i;
    if (is_punct(toks_[after_name], "=") || is_punct(toks_[after_name], "(") ||
        is_punct(toks_[after_name], "{") || is_punct(toks_[after_name], ";")) {
      locals_.push_back(Local{toks_[j].text, cls->name});
      return after_name;
    }
    return i;
  }

  void record_call(const std::vector<std::string>& chain, int line) {
    static const std::set<std::string> kKeywords = {
        "if",     "for",    "while",  "switch",   "return", "sizeof",
        "catch",  "throw",  "new",    "delete",   "static_cast",
        "assert", "co_await"};
    const std::string& name = chain.back();
    if (kKeywords.count(name) != 0) return;
    const FunctionInfo* callee = nullptr;
    if (chain.size() == 1) {
      // Same-class method or free function in the model.
      callee = model_.resolve_function(fn_.cls, name);
      if (callee == nullptr && !fn_.cls.empty()) {
        callee = model_.resolve_function("", name);
      }
    } else {
      const std::vector<std::string> recv(chain.begin(), chain.end() - 1);
      std::string cls = class_of_name(recv[0]);
      for (std::size_t k = 1; k < recv.size() && !cls.empty(); ++k) {
        const MemberVar* m = model_.resolve_member(cls, recv[k]);
        const ClassInfo* c =
            m == nullptr ? nullptr : model_.resolve_class(m->type_head);
        cls = c == nullptr ? "" : c->name;
      }
      if (!cls.empty()) callee = model_.resolve_function(cls, name);
    }
    if (callee == nullptr) return;
    CallSite site;
    site.callee = static_cast<std::size_t>(callee - model_.functions().data());
    for (const Held& h : held_) site.held.insert(h.mutex);
    site.line = line;
    summary_.calls.push_back(std::move(site));
  }

  const Model& model_;
  const FunctionInfo& fn_;
  const std::vector<Token>& toks_;
  const std::map<std::string, std::string>& mutex_of_member_;
  std::vector<RawEdge>& edges_;
  FnSummary& summary_;
  std::vector<Held> held_;
  std::vector<Local> locals_;
  std::map<std::string, std::string> released_;  // RAII var -> mutex
};

[[nodiscard]] int level_of(const Hierarchy& h, const std::string& mutex_id) {
  for (std::size_t lvl = 0; lvl < h.levels.size(); ++lvl) {
    for (const auto& name : h.levels[lvl]) {
      if (qualified_suffix_match(mutex_id, name)) {
        return static_cast<int>(lvl);
      }
    }
  }
  return -1;
}

}  // namespace

Hierarchy default_hierarchy() {
  Hierarchy h;
  h.levels = {
      {"SsdPipeline::mu_"},
      {"RangeLockTable::order_mu_", "RangeLockTable::Shard::mu"},
  };
  return h;
}

Graph build_graph(const Model& model) {
  Graph g;
  // Mutex ids + the member-name lookup the body walker resolves against.
  std::map<std::string, std::string> mutex_of_member;
  for (const ClassInfo& c : model.classes()) {
    for (const MemberVar& m : c.members) {
      if (!is_mutex_type(m.type_head)) continue;
      const std::string id = c.name + "::" + m.name;
      g.mutexes.push_back(MutexDecl{id, c.file, m.line});
      mutex_of_member[id] = id;
    }
  }

  const auto& fns = model.functions();
  std::vector<FnSummary> summaries(fns.size());
  std::vector<RawEdge> raw;
  for (std::size_t i = 0; i < fns.size(); ++i) {
    const std::vector<Token>* toks = model.tokens(fns[i].file);
    if (toks == nullptr) continue;
    BodyWalker(model, fns[i], *toks, mutex_of_member, raw, summaries[i])
        .run();
  }

  // Close call summaries: total = direct U callees' totals (fixpoint).
  for (auto& s : summaries) s.total = s.direct;
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& s : summaries) {
      for (const CallSite& call : s.calls) {
        for (const auto& m : summaries[call.callee].total) {
          if (s.total.insert(m).second) changed = true;
        }
      }
    }
  }

  // Call edges: held H calling a function that transitively acquires a.
  for (std::size_t i = 0; i < fns.size(); ++i) {
    for (const CallSite& call : summaries[i].calls) {
      for (const auto& h : call.held) {
        for (const auto& a : summaries[call.callee].total) {
          raw.push_back(RawEdge{
              h, a, fns[i].file,
              fns[i].cls.empty() ? fns[i].name
                                 : fns[i].cls + "::" + fns[i].name,
              call.line});
        }
      }
    }
  }

  // Deduplicate on (from, to); keep the first site seen.
  std::set<std::pair<std::string, std::string>> seen;
  for (const RawEdge& e : raw) {
    if (!seen.insert({e.from, e.to}).second) continue;
    g.edges.push_back(Edge{e.from, e.to, e.file, e.line, e.via});
  }
  std::sort(g.edges.begin(), g.edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.from, a.to) < std::tie(b.from, b.to);
  });
  return g;
}

std::vector<Finding> check(const Graph& graph, const Hierarchy& hierarchy) {
  std::vector<Finding> out;

  // Self-edges are immediate deadlocks; report them directly.
  for (const Edge& e : graph.edges) {
    if (e.from == e.to) {
      out.push_back(Finding{
          e.file, e.line, "lock-order",
          "re-acquisition of non-reentrant mutex '" + e.from + "' in " +
              e.via + " while already held — self-deadlock"});
    }
  }

  // Cycle detection over distinct mutexes (DFS, three-color).
  std::map<std::string, std::vector<const Edge*>> adj;
  for (const Edge& e : graph.edges) {
    if (e.from != e.to) adj[e.from].push_back(&e);
  }
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<const Edge*> stack;
  auto dfs = [&](auto&& self, const std::string& node) -> void {
    color[node] = 1;
    for (const Edge* e : adj[node]) {
      if (color[e->to] == 1) {
        // Found a cycle: stack suffix from e->to plus this edge.
        std::string path = e->to;
        bool in_cycle = false;
        const Edge* site = e;
        for (const Edge* s : stack) {
          if (s->from == e->to) in_cycle = true;
          if (in_cycle) {
            path += " -> " + s->to;
            site = s;
          }
        }
        path += " -> " + e->to;
        out.push_back(Finding{
            site->file, site->line, "lock-order",
            "lock acquisition cycle: " + path +
                " — a schedule interleaving these acquisitions deadlocks"});
        continue;
      }
      if (color[e->to] == 0) {
        stack.push_back(e);
        self(self, e->to);
        stack.pop_back();
      }
    }
    color[node] = 2;
  };
  for (const auto& [node, _] : adj) {
    if (color[node] == 0) dfs(dfs, node);
  }

  // Hierarchy inversions: an edge landing on the same or an earlier level.
  for (const Edge& e : graph.edges) {
    if (e.from == e.to) continue;
    const int lf = level_of(hierarchy, e.from);
    const int lt = level_of(hierarchy, e.to);
    if (lf < 0 || lt < 0) continue;
    if (lt < lf) {
      out.push_back(Finding{
          e.file, e.line, "lock-order",
          "inverted lock order in " + e.via + ": '" + e.from +
              "' (level " + std::to_string(lf) + ") held while acquiring '" +
              e.to + "' (level " + std::to_string(lt) +
              ") — the documented hierarchy acquires the pipeline mutex "
              "before any range-lock shard mutex"});
    } else if (lt == lf && !qualified_suffix_match(e.from, e.to)) {
      out.push_back(Finding{
          e.file, e.line, "lock-order",
          "same-level lock nesting in " + e.via + ": '" + e.from +
              "' held while acquiring '" + e.to +
              "' — peers of one hierarchy level must never nest"});
    }
  }

  return out;
}

std::vector<Finding> analyze(const std::vector<SourceFile>& files,
                             const Hierarchy& hierarchy) {
  const Model model = Model::build(files);
  return check(build_graph(model), hierarchy);
}

}  // namespace af::lint::lockorder
