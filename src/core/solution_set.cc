#include "core/solution_set.h"

#include <cmath>
#include <sstream>

#include "common/checkpoint.h"
#include "metrics/multi_solution.h"
#include "metrics/partition_similarity.h"

namespace multiclust {

void SolutionSet::Visit(ckpt::Archive& ar) {
  ar.Field("items", solutions_);
}

Status SolutionSet::Add(Clustering clustering) {
  if (!solutions_.empty() &&
      clustering.labels.size() != solutions_[0].labels.size()) {
    return Status::InvalidArgument(
        "SolutionSet: solution labels a different number of objects");
  }
  solutions_.push_back(std::move(clustering));
  return Status::OK();
}

std::vector<std::vector<int>> SolutionSet::Labels() const {
  std::vector<std::vector<int>> out;
  out.reserve(solutions_.size());
  for (const Clustering& c : solutions_) out.push_back(c.labels);
  return out;
}

Result<double> SolutionSet::Diversity() const {
  return MeanPairwiseDissimilarity(Labels());
}

Result<double> SolutionSet::MinDiversity() const {
  return MinPairwiseDissimilarity(Labels());
}

Result<size_t> SolutionSet::Deduplicate(double min_dissimilarity) {
  std::vector<Clustering> kept;
  size_t removed = 0;
  for (Clustering& cand : solutions_) {
    bool duplicate = false;
    for (const Clustering& k : kept) {
      MC_ASSIGN_OR_RETURN(double d,
                          ClusteringDissimilarity(cand.labels, k.labels));
      if (d < min_dissimilarity) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      ++removed;
    } else {
      kept.push_back(std::move(cand));
    }
  }
  solutions_ = std::move(kept);
  return removed;
}

std::string SolutionSet::Summary() const {
  std::ostringstream out;
  for (size_t i = 0; i < solutions_.size(); ++i) {
    const Clustering& c = solutions_[i];
    out << "solution " << i << ": " << c.algorithm << ", k="
        << c.NumClusters();
    if (std::isfinite(c.quality)) out << ", quality=" << c.quality;
    out << "\n";
  }
  return out.str();
}

}  // namespace multiclust
