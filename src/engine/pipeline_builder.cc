#include "engine/pipeline_builder.h"

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "operators/fused_pipeline.h"
#include "telemetry/query_stats.h"

namespace hetdb {

namespace {

/// A candidate chain collected top-down from one node.
struct ChainInfo {
  std::vector<PlanNodePtr> members_top_down;
  std::vector<PlanNodePtr> builds_top_down;  ///< one per join member
  PlanNodePtr source;
};

/// Walks down from `node` collecting fusable members. Select/Project
/// continue through their child, Join through its probe child; Aggregate is
/// accepted only as the topmost member (it is a full pipeline breaker
/// anywhere else). Returns true when the chain has >= 2 members and bottoms
/// out in a Scan.
bool CollectChain(const PlanNodePtr& node, ChainInfo* out) {
  PlanNodePtr cur = node;
  bool first = true;
  bool done = false;
  while (!done) {
    switch (cur->op()) {
      case PlanOp::kAggregate:
        if (!first) {
          done = true;
          break;
        }
        out->members_top_down.push_back(cur);
        cur = cur->children()[0];
        break;
      case PlanOp::kSelect:
      case PlanOp::kProject:
        out->members_top_down.push_back(cur);
        cur = cur->children()[0];
        break;
      case PlanOp::kJoin:
        out->members_top_down.push_back(cur);
        out->builds_top_down.push_back(cur->children()[0]);
        cur = cur->children()[1];
        break;
      default:
        done = true;
        break;
    }
    first = false;
  }
  out->source = cur;
  return out->members_top_down.size() >= 2 && cur->op() == PlanOp::kScan;
}

/// Static mirror of the runtime binder's name rules: one schema column with
/// a provenance tag (0 = source, j+1 = join level j's build side, -1 =
/// computed). Types are unknown here, so the runtime binder re-checks and
/// falls back to member replay if needed; this pass only avoids fusing
/// chains that would certainly replay.
struct NameTag {
  std::string name;
  int tag = 0;
};

const NameTag* FindName(const std::vector<NameTag>& schema,
                        const std::string& name) {
  for (const NameTag& col : schema) {
    if (col.name == name) return &col;
  }
  return nullptr;
}

bool HasDuplicate(const std::vector<NameTag>& schema) {
  std::unordered_set<std::string> seen;
  for (const NameTag& col : schema) {
    if (!seen.insert(col.name).second) return true;
  }
  return false;
}

bool ValidateChain(const ChainInfo& chain) {
  const auto& scan = static_cast<const ScanNode&>(*chain.source);
  std::vector<NameTag> schema;
  for (const std::string& name : scan.columns()) schema.push_back({name, 0});

  int join_level = 0;
  const auto& members = chain.members_top_down;
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    const PlanNode& member = **it;
    switch (member.op()) {
      case PlanOp::kSelect: {
        const auto& select = static_cast<const SelectNode&>(member);
        for (const Disjunction& disjunction : select.filter().conjuncts) {
          for (const Predicate& atom : disjunction.atoms) {
            const NameTag* col = FindName(schema, atom.column);
            if (col == nullptr || col->tag != 0) return false;
          }
        }
        break;
      }
      case PlanOp::kJoin: {
        const auto& join = static_cast<const JoinNode&>(member);
        const NameTag* probe = FindName(schema, join.probe_key());
        if (probe == nullptr || probe->tag < 0) return false;
        const JoinOutputSpec& spec = join.output_spec();
        if ((!spec.build_aliases.empty() &&
             spec.build_aliases.size() != spec.build_columns.size()) ||
            (!spec.probe_aliases.empty() &&
             spec.probe_aliases.size() != spec.probe_columns.size())) {
          return false;
        }
        std::vector<NameTag> next;
        for (size_t i = 0; i < spec.build_columns.size(); ++i) {
          const std::string& out_name = spec.build_aliases.empty()
                                            ? spec.build_columns[i]
                                            : spec.build_aliases[i];
          next.push_back({out_name, join_level + 1});
        }
        for (size_t i = 0; i < spec.probe_columns.size(); ++i) {
          const NameTag* col = FindName(schema, spec.probe_columns[i]);
          if (col == nullptr) return false;
          const std::string& out_name = spec.probe_aliases.empty()
                                            ? spec.probe_columns[i]
                                            : spec.probe_aliases[i];
          next.push_back({out_name, col->tag});
        }
        if (HasDuplicate(next)) return false;
        schema = std::move(next);
        ++join_level;
        break;
      }
      case PlanOp::kProject: {
        const auto& project = static_cast<const ProjectNode&>(member);
        std::vector<NameTag> next;
        for (const std::string& name : project.keep_columns()) {
          const NameTag* col = FindName(schema, name);
          if (col == nullptr) return false;
          next.push_back(*col);
        }
        for (const ArithmeticExpr& expr : project.expressions()) {
          const NameTag* left = FindName(schema, expr.left_column);
          if (left == nullptr || left->tag < 0) return false;
          if (!expr.right_column.empty()) {
            const NameTag* right = FindName(schema, expr.right_column);
            if (right == nullptr || right->tag < 0) return false;
          }
          next.push_back({expr.output_name, -1});
        }
        if (HasDuplicate(next)) return false;
        schema = std::move(next);
        break;
      }
      case PlanOp::kAggregate: {
        const auto& agg = static_cast<const AggregateNode&>(member);
        for (const std::string& name : agg.group_by()) {
          const NameTag* col = FindName(schema, name);
          if (col == nullptr || col->tag < 0) return false;
        }
        for (const AggregateSpec& spec : agg.aggregates()) {
          if (spec.fn == AggregateFn::kCount && spec.input_column.empty()) {
            continue;  // COUNT(*)
          }
          if (FindName(schema, spec.input_column) == nullptr) return false;
        }
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

/// Rebuilds `node` with `children` (same type, same parameters). Only
/// called when at least one child actually changed.
PlanNodePtr CloneWithChildren(const PlanNodePtr& node,
                              std::vector<PlanNodePtr> children) {
  switch (node->op()) {
    case PlanOp::kSelect: {
      const auto& select = static_cast<const SelectNode&>(*node);
      return std::make_shared<SelectNode>(std::move(children[0]),
                                          select.filter());
    }
    case PlanOp::kJoin: {
      const auto& join = static_cast<const JoinNode&>(*node);
      return std::make_shared<JoinNode>(
          std::move(children[0]), std::move(children[1]), join.build_key(),
          join.probe_key(), join.output_spec());
    }
    case PlanOp::kAggregate: {
      const auto& agg = static_cast<const AggregateNode&>(*node);
      return std::make_shared<AggregateNode>(std::move(children[0]),
                                             agg.group_by(), agg.aggregates());
    }
    case PlanOp::kSort: {
      const auto& sort = static_cast<const SortNode&>(*node);
      return std::make_shared<SortNode>(std::move(children[0]), sort.keys());
    }
    case PlanOp::kProject: {
      const auto& project = static_cast<const ProjectNode&>(*node);
      return std::make_shared<ProjectNode>(std::move(children[0]),
                                           project.keep_columns(),
                                           project.expressions());
    }
    case PlanOp::kLimit: {
      const auto& limit = static_cast<const LimitNode&>(*node);
      return std::make_shared<LimitNode>(std::move(children[0]),
                                         limit.limit());
    }
    case PlanOp::kFusedPipeline: {
      const auto& fused = static_cast<const FusedPipelineNode&>(*node);
      return std::make_shared<FusedPipelineNode>(std::move(children),
                                                 fused.members());
    }
    case PlanOp::kScan:
      break;  // leaf: never cloned
  }
  HETDB_LOG(Fatal) << "CloneWithChildren: unexpected op";
  return node;
}

}  // namespace

PlanNodePtr FusePipelines(const PlanNodePtr& node, int max_fused_joins) {
  if (node == nullptr) return node;

  ChainInfo chain;
  if (CollectChain(node, &chain) &&
      (max_fused_joins < 0 ||
       chain.builds_top_down.size() <=
           static_cast<size_t>(max_fused_joins)) &&
      ValidateChain(chain)) {
    // Members run bottom-up inside the fused node; its children are the
    // (recursively rewritten) source plus one build subtree per join, in
    // bottom-up member order.
    std::vector<PlanNodePtr> members(chain.members_top_down.rbegin(),
                                     chain.members_top_down.rend());
    std::vector<PlanNodePtr> children;
    children.push_back(FusePipelines(chain.source, max_fused_joins));
    for (auto it = chain.builds_top_down.rbegin();
         it != chain.builds_top_down.rend(); ++it) {
      children.push_back(FusePipelines(*it, max_fused_joins));
    }
    return std::make_shared<FusedPipelineNode>(std::move(children),
                                               std::move(members));
  }

  std::vector<PlanNodePtr> children;
  children.reserve(node->children().size());
  bool changed = false;
  for (const PlanNodePtr& child : node->children()) {
    PlanNodePtr rewritten = FusePipelines(child, max_fused_joins);
    changed = changed || rewritten != child;
    children.push_back(std::move(rewritten));
  }
  if (!changed) return node;
  return CloneWithChildren(node, std::move(children));
}

PlanNodePtr OptimizePlan(const PlanNodePtr& root, const QueryStats* stats,
                         int max_fused_joins) {
  PlanNodePtr fused = FusePipelines(root, max_fused_joins);
  const bool stats_compatible = stats == nullptr || stats->nodes().empty() ||
                                stats->Find(fused.get()) != nullptr;
  return stats_compatible ? fused : root;
}

}  // namespace hetdb
