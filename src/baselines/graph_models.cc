#include "baselines/graph_models.h"

#include <algorithm>
#include <cctype>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "embed/walks_batched.h"

namespace leva {
namespace {

// EmbDI-F input transformation: case folding and punctuation stripping.
std::string NormalizeToken(const std::string& token) {
  std::string out;
  out.reserve(token.size());
  for (const char c : token) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) {
      out += static_cast<char>(std::tolower(u));
    } else if (c == '#' || c == '_' || c == '.') {
      out += c;  // keep structural separators from the textifier
    }
  }
  return out.empty() ? token : out;
}

}  // namespace

Result<LevaGraph> Node2VecModel::BuildModelGraph(
    const std::vector<TextifiedTable>& tables, size_t total_attributes) {
  // Raw syntactic graph: keep every token (theta_range = 1 disables the
  // missing-data removal, theta_min = 0 keeps every attribute), unweighted.
  GraphOptions options;
  options.theta_range = 1.0;
  options.theta_min = 0.0;
  options.weighted = false;
  return BuildGraph(tables, total_attributes, options);
}

Status Node2VecModel::Fit(const Database& db) {
  Rng rng(seed_);
  textifier_ = Textifier(textify_options_);
  LEVA_RETURN_IF_ERROR(textifier_.Fit(db));
  std::vector<TextifiedTable> textified;
  textified.reserve(db.tables().size());
  for (const Table& t : db.tables()) {
    LEVA_ASSIGN_OR_RETURN(TextifiedTable tt, textifier_.Transform(t));
    textified.push_back(std::move(tt));
  }
  LEVA_ASSIGN_OR_RETURN(
      graph_, BuildModelGraph(textified, textifier_.NumAttributes()));

  WalkOptions walk_options;
  walk_options.weighted = false;
  walk_options.p = p_;
  walk_options.q = q_;
  walk_options.walk_length = 20;
  walk_options.epochs = 5;
  BatchedWalkGenerator generator(&graph_, walk_options);
  LEVA_ASSIGN_OR_RETURN(const FlatCorpus corpus, generator.Generate(&rng));

  Word2Vec model(w2v_options_);
  LEVA_RETURN_IF_ERROR(model.Train(corpus, graph_.NumNodes(), &rng));

  LEVA_ASSIGN_OR_RETURN(
      embedding_,
      Embedding::FromNodeVectors(graph_, std::move(model).node_vectors()));
  return Status::OK();
}

Result<std::vector<double>> Node2VecModel::RowVector(
    const Table& table, size_t row, const std::string& target_column,
    bool rows_in_graph) const {
  const size_t dim = embedding_.dim();
  if (rows_in_graph) {
    const auto vec = embedding_.Get(table.name() + ":" + std::to_string(row));
    if (!vec.empty()) return std::vector<double>(vec.begin(), vec.end());
  }
  // Out-of-graph rows compose from their tokens' embeddings.
  std::vector<double> out(dim, 0.0);
  size_t hits = 0;
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    const Column& col = table.column(c);
    if (col.name == target_column) continue;
    LEVA_ASSIGN_OR_RETURN(
        const TextifiedColumn cell,
        textifier_.TransformColumn(table.name(), col, row, row + 1));
    for (const std::string_view view : cell.tokens) {
      const std::string token(view);
      const auto vec = embedding_.Get(TokenKey(token));
      if (vec.empty()) continue;
      ++hits;
      for (size_t j = 0; j < dim; ++j) out[j] += vec[j];
    }
  }
  if (hits > 0) {
    for (double& v : out) v /= static_cast<double>(hits);
  }
  return out;
}

std::string Node2VecModel::TokenKey(const std::string& token) const {
  return token;
}

std::string EmbdiModel::TokenKey(const std::string& token) const {
  return normalize_tokens_ ? NormalizeToken(token) : token;
}

Result<LevaGraph> EmbdiModel::BuildModelGraph(
    const std::vector<TextifiedTable>& tables, size_t total_attributes) {
  (void)total_attributes;
  GraphBuilder builder;
  std::unordered_map<std::string, NodeId> token_nodes;
  std::unordered_map<uint32_t, NodeId> column_nodes;
  std::unordered_set<uint64_t> token_column_edges;

  for (const TextifiedTable& t : tables) {
    const NodeId first = builder.AddNode(
        NodeKind::kRow, t.table_name + ":0");
    for (size_t r = 1; r < t.rows.size(); ++r) {
      builder.AddNode(NodeKind::kRow, t.table_name + ":" + std::to_string(r));
    }
    builder.RegisterTableRows(t.table_name, first, t.rows.size());
  }
  NodeId next_row = 0;
  for (const TextifiedTable& t : tables) {
    for (size_t r = 0; r < t.rows.size(); ++r) {
      const NodeId row_node = next_row++;
      for (const TextToken& tok : t.rows[r]) {
        const std::string token = TokenKey(tok.token);
        auto [it, inserted] = token_nodes.emplace(token, kInvalidNode);
        if (inserted) it->second = builder.AddNode(NodeKind::kValue, token);
        LEVA_RETURN_IF_ERROR(builder.AddEdge(row_node, it->second));

        auto [cit, cinserted] = column_nodes.emplace(tok.attr_id, kInvalidNode);
        if (cinserted) {
          cit->second = builder.AddNode(
              NodeKind::kValue, "__col__" + std::to_string(tok.attr_id));
        }
        const uint64_t edge_key =
            (static_cast<uint64_t>(it->second) << 32) | cit->second;
        if (token_column_edges.insert(edge_key).second) {
          LEVA_RETURN_IF_ERROR(builder.AddEdge(it->second, cit->second));
        }
      }
    }
  }
  return std::move(builder).Build();
}

}  // namespace leva
