//! A minimal dense tensor with an explicit shape.

use crate::error::NnError;

/// A row-major, dynamically shaped tensor of `f64` values.
///
/// The first dimension is conventionally the batch dimension.
///
/// # Example
///
/// ```
/// use ispot_nn::Tensor;
///
/// # fn main() -> Result<(), ispot_nn::NnError> {
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `data.len()` does not equal the product of
    /// the shape dimensions.
    pub fn from_vec(data: Vec<f64>, shape: &[usize]) -> Result<Self, NnError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(NnError::shape_mismatch(
                format!("{expected} elements for shape {shape:?}"),
                &[data.len()],
            ));
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a 2-D tensor (`rows.len() x rows[0].len()`) from row vectors — the
    /// typical way to build a training batch.
    ///
    /// # Errors
    ///
    /// Returns an error if the rows have inconsistent lengths or there are no rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, NnError> {
        if rows.is_empty() {
            return Err(NnError::invalid_parameter("rows", "must not be empty"));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(NnError::shape_mismatch(
                    format!("row of length {cols}"),
                    &[r.len()],
                ));
            }
            data.extend_from_slice(r);
        }
        Tensor::from_vec(data, &[rows.len(), cols])
    }

    /// Returns the tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Returns the total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns true if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the underlying data slice (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the underlying data slice mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the tensor, returning its data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Reshapes the tensor without copying.
    ///
    /// # Errors
    ///
    /// Returns an error if the new shape has a different number of elements.
    pub fn reshape(mut self, shape: &[usize]) -> Result<Self, NnError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(NnError::shape_mismatch(
                format!("{} elements", self.data.len()),
                shape,
            ));
        }
        self.shape = shape.to_vec();
        Ok(self)
    }

    /// Returns the batch size (size of the first dimension), or 0 for a rank-0 tensor.
    pub fn batch_size(&self) -> usize {
        self.shape.first().copied().unwrap_or(0)
    }

    /// Returns the value at a 2-D index.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the index is out of range.
    pub fn at2(&self, i: usize, j: usize) -> f64 {
        assert_eq!(self.shape.len(), 2, "at2 requires a 2-D tensor");
        self.data[i * self.shape[1] + j]
    }

    /// Sets the value at a 2-D index.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the index is out of range.
    pub fn set2(&mut self, i: usize, j: usize, v: f64) {
        assert_eq!(self.shape.len(), 2, "set2 requires a 2-D tensor");
        self.data[i * self.shape[1] + j] = v;
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns an error if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, NnError> {
        if self.shape != other.shape {
            return Err(NnError::shape_mismatch(
                format!("{:?}", self.shape),
                &other.shape,
            ));
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor::from_vec(data, &self.shape)
    }

    /// Element-wise scaling by a constant.
    pub fn scale(&self, k: f64) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|v| v * k).collect(),
        }
    }

    /// Applies a function element-wise.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Extracts the rows of a 2-D tensor as vectors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn rows(&self) -> Vec<Vec<f64>> {
        assert_eq!(self.shape.len(), 2, "rows requires a 2-D tensor");
        self.data
            .chunks(self.shape[1])
            .map(|c| c.to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at2(1, 2), 6.0);
        assert_eq!(t.batch_size(), 2);
    }

    #[test]
    fn bad_shapes_rejected() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Tensor::from_rows(&[]).is_err());
        assert!(Tensor::zeros(&[2, 2]).reshape(&[3]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.clone().reshape(&[4]).unwrap();
        assert_eq!(r.shape(), &[4]);
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    fn elementwise_operations() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, -1.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 1.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!(a.map(|v| v * v).as_slice(), &[1.0, 4.0]);
        assert!(a.add(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn from_rows_round_trip() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let t = Tensor::from_rows(&rows).unwrap();
        assert_eq!(t.rows(), rows);
    }

    #[test]
    fn set2_writes_in_place() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set2(0, 1, 7.0);
        assert_eq!(t.at2(0, 1), 7.0);
    }
}
