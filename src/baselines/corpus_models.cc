#include "baselines/corpus_models.h"

#include <cmath>
#include <utility>

#include "common/rng.h"
#include "la/decomp.h"

namespace leva {
namespace {
// Each row enters the corpus this many times, in column order and then
// shuffled (cells have no order); one copy left SGNS ~10 steps per token
// type, too few to leave the init (EXPERIMENTS.md "Word2Vec baseline").
constexpr size_t kRowSentences = 10;

// All-but-the-top (Mu & Viswanath, ICLR 2018): drops the mean and the top
// principal direction, which alone would make every averaged row alike.
Status RemoveCommonComponent(Matrix* vectors) {
  LEVA_ASSIGN_OR_RETURN(const PCA pca, PCA::Fit(*vectors, 1));
  const Matrix along = pca.Transform(*vectors);
  for (size_t r = 0; r < vectors->rows(); ++r) {
    for (size_t c = 0; c < vectors->cols(); ++c) {
      (*vectors)(r, c) -= pca.mean()[c] + along(r, 0) * pca.basis()(c, 0);
    }
  }
  return Status::OK();
}
}  // namespace

Status DirectWord2VecModel::Fit(const Database& db) {
  Rng rng(seed_);
  textifier_ = Textifier(textify_options_);
  LEVA_RETURN_IF_ERROR(textifier_.Fit(db));

  // Vocabulary and one sentence per row (empty rows are dropped by
  // EndSentence).
  std::unordered_map<std::string, uint32_t> vocab;
  std::vector<std::string> vocab_tokens;
  FlatCorpus rows;
  token_row_freq_.clear();
  total_rows_ = 0;

  for (const Table& t : db.tables()) {
    LEVA_ASSIGN_OR_RETURN(const TextifiedTable tt, textifier_.Transform(t));
    for (const auto& row : tt.rows) {
      std::unordered_map<std::string, bool> seen_in_row;
      for (const TextToken& tok : row) {
        auto [it, inserted] =
            vocab.emplace(tok.token, static_cast<uint32_t>(vocab.size()));
        if (inserted) vocab_tokens.push_back(tok.token);
        rows.PushToken(it->second);
        if (!seen_in_row[tok.token]) {
          seen_in_row[tok.token] = true;
          token_row_freq_[tok.token] += 1.0;
        }
      }
      rows.EndSentence();
      ++total_rows_;
    }
  }
  if (vocab.empty()) return Status::InvalidArgument("no tokens in database");

  FlatCorpus corpus;
  std::vector<uint32_t> shuffled;
  for (size_t copy = 0; copy < kRowSentences; ++copy) {
    for (size_t r = 0; r < rows.size(); ++r) {
      shuffled.assign(rows[r].begin(), rows[r].end());
      if (copy > 0) rng.Shuffle(&shuffled);
      corpus.AppendSentence(shuffled);
    }
  }

  Word2Vec model(w2v_options_);
  LEVA_RETURN_IF_ERROR(model.Train(corpus, vocab.size(), &rng));

  Matrix vectors = std::move(model).node_vectors();
  LEVA_RETURN_IF_ERROR(RemoveCommonComponent(&vectors));
  embedding_ = Embedding(w2v_options_.dim);
  for (size_t i = 0; i < vocab_tokens.size(); ++i) {
    LEVA_RETURN_IF_ERROR(embedding_.Put(
        vocab_tokens[i], {vectors.RowPtr(i), vectors.cols()}));
  }
  return Status::OK();
}

double DeeperModel::TokenWeight(const std::string& token) const {
  const auto it = token_row_freq_.find(token);
  const double freq = it == token_row_freq_.end() ? 1.0 : it->second;
  return std::log(1.0 + static_cast<double>(total_rows_) / freq);
}

Result<std::vector<double>> DirectWord2VecModel::RowVector(
    const Table& table, size_t row, const std::string& target_column,
    bool rows_in_graph) const {
  (void)rows_in_graph;  // no row nodes in a pure text corpus
  std::vector<double> out(embedding_.dim(), 0.0);
  double total_weight = 0.0;
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    const Column& col = table.column(c);
    if (col.name == target_column) continue;
    LEVA_ASSIGN_OR_RETURN(
        const TextifiedColumn cell,
        textifier_.TransformColumn(table.name(), col, row, row + 1));
    for (const std::string_view view : cell.tokens) {
      const std::string token(view);
      const auto vec = embedding_.Get(token);
      if (vec.empty()) continue;
      const double w = TokenWeight(token);
      total_weight += w;
      for (size_t j = 0; j < out.size(); ++j) out[j] += w * vec[j];
    }
  }
  if (total_weight > 0) {
    for (double& v : out) v /= total_weight;
  }
  return out;
}

}  // namespace leva
